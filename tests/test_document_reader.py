"""``cli.load_document`` reads a document's bytes once and decodes them
once; the text-mode reader it replaced is kept here as the oracle.

Text mode turns every CRLF and lone CR into LF before ``json`` sees the
text, and ``json`` counts lines and characters on what it sees, so a
reader that skipped the translation would move the line, column and
"char N" of a decode error after such a line end (and would count a lone
CR as no line end at all).  Every case must give the oracle's document, or
its exception type and message.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from cliffbundle import cli


def text_reader(path):
    """``cli.load_document`` as it read documents through a text-mode file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("document nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    if ("form" in doc) == ("net" in doc):
        raise ValueError("document must contain exactly one of 'form'/'net'")
    return doc


def outcome(read, path):
    try:
        return "ok", read(path)
    except (ValueError, OSError) as exc:
        return type(exc), str(exc)


def assert_same(path):
    expected = outcome(text_reader, path)
    assert outcome(cli.load_document, path) == expected
    return expected


FORM = (b'{"scalar_domain": {"prime": 101},\n "form": {"a": [0, 0, 0], "d": 1,\n'
        b' "entries": ["u", "0", "0", "v", "0", "w"]}}')

CORPUS = {
    "lf": FORM,
    "crlf": FORM.replace(b"\n", b"\r\n"),
    "lone-cr": FORM.replace(b"\n", b"\r"),
    "cr-crlf": FORM.replace(b"\n", b"\r\r\n"),
    "bom": b"\xef\xbb\xbf" + FORM,
    "invalid-utf8": FORM.replace(b'"u"', b'"\xff"'),
    "truncated-utf8": b'{"form": "\xc3',
    "utf16": FORM.decode().encode("utf-16"),
    "empty": b"",
    "truncated-after-crlf": b'{\r\n"form": ',
    "truncated-after-cr": b'{\r"form": ',
    "control-after-crlf": b'{"net": 1,\r\n"form": "a\tb"}',
    "control-after-cr": b'{"net": 1,\r"form": "a\tb"}',
    "raw-cr-in-string": b'{"form": "a\rb"}',
    "raw-crlf-in-string": b'{"form": "a\r\nb"}',
    "error-after-crlfs": b'{\r\n\r\n"form": [1,\r\n 2,, 3]}',
    "deep": b"[" * 100000 + b"]" * 100000,
    "non-object": b"[1,\r\n2]",
    "scalar": b"5",
    "both": b'{"form": {},\r\n "net": {}}',
    "neither": b'{"scalar_domain": "rational"}\r\n',
    "non-ascii": '{"form": {"entries": ["é"]}}\r\n'.encode(),
}


@pytest.mark.parametrize("name", CORPUS)
def test_the_byte_reader_matches_the_text_reader(tmp_path, name):
    path = tmp_path / "doc.json"
    path.write_bytes(CORPUS[name])
    assert_same(str(path))


def test_the_corpus_reaches_every_outcome(tmp_path):
    """The corpus holds documents that load and each refusal of a reader:
    an undecodable file, a decode error with a position, and the checks
    that follow the decode."""
    seen = set()
    for name, data in CORPUS.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        kind, message = assert_same(str(path))
        seen.add(kind if kind in ("ok", UnicodeDecodeError, json.JSONDecodeError)
                 else message)
    assert seen >= {"ok", UnicodeDecodeError, json.JSONDecodeError,
                    "document nests too deeply", "document must be a JSON object",
                    "document must contain exactly one of 'form'/'net'"}


def test_a_missing_file_and_a_directory_raise_the_same_os_errors(tmp_path):
    assert assert_same(str(tmp_path / "missing.json"))[0] is FileNotFoundError
    assert_same(str(tmp_path))


# Pieces of JSON text and of line ends, valid or not.
PIECES = st.sampled_from(["{", "}", "[", "]", '"', ":", ",", " ", "\t", "\r", "\n",
                          "\r\n", '"form"', '"net"', "1", "u", "é", "\x00"])


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(PIECES, max_size=24), prefix=st.sampled_from(
    ['{"form": ', '{"net": 0,\r\n"form": ', '{\r', "", '["\r']))
def test_any_text_reads_as_the_text_reader_reads_it(tmp_path_factory, pieces, prefix):
    path = tmp_path_factory.getbasetemp() / "reader.json"
    path.write_bytes((prefix + "".join(pieces)).encode("utf-8"))
    assert_same(str(path))
