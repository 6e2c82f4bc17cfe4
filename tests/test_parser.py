"""The polynomial grammar against the parser it replaced.

``reference_parse`` is the character-loop tokenizer and recursive-descent
parser that ``poly.parse_poly`` replaced, kept verbatim as the oracle.  A
Hypothesis property over Q, F_5 and F_101 draws text from the grammar's
pieces and a few characters outside it: both parsers must give the same
polynomial, or raise the same exception type with the same message.  On
non-ASCII text only refusal messages may differ: a text either parser
refuses, both refuse.  The pieces include the printer's " + " and " - ",
so printed texts and their near misses are drawn too.  Fixed texts reach
the exponent limit, every entry of the catalog documents is compared, and
a second property draws long texts that the grammar accepts.  With the
token walker patched to raise, the printed-text reader alone must read
every catalog entry back.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from cliffbundle import PolyRing, PrimeField, QQ, catalog, cli, poly
from cliffbundle.errors import (ExponentLimitError, InhomogeneousError,
                                PolyParseError, UnknownVariableError)
from cliffbundle.poly import (EXP_LIMIT, HomogPoly, add_multiple,
                              monomials_of_degree, pack, parse_poly)

RINGS = tuple(PolyRing(domain) for domain in (QQ, PrimeField(5), PrimeField(101)))

PIECES = (*"0123456789", *"uvwx_", *"+-*/^", " ", "\t", "?", "^0", "/0", "1/3",
          " + ", " - ", "*u^2")


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif ch in "+-*/^":
            tokens.append((ch, ch))
            i += 1
        else:
            raise PolyParseError(f"bad character {ch!r} at position {i}")
    return tokens


class _Parser:
    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind=None):
        if self.pos >= len(self.tokens):
            raise PolyParseError("unexpected end of input")
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise PolyParseError(f"expected {kind}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self):
        terms = {}
        degree = None
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        while True:
            coeff, exps = self.term()
            if coeff:
                d = sum(exps)
                if degree is None:
                    degree = d
                elif d != degree:
                    raise InhomogeneousError(
                        f"mixed degrees {degree} and {d} in input")
                key = pack(exps, len(exps))
                add_multiple(terms, key, sign * coeff, {0: 1}, self.ring.modulus)
            nxt = self.peek()
            if nxt is None:
                break
            if nxt == "+":
                self.take()
                sign = 1
            elif nxt == "-":
                self.take()
                sign = -1
            else:
                raise PolyParseError(f"expected + or -, found {self.tokens[self.pos][1]!r}")
        return HomogPoly._make(self.ring, terms, degree)

    def term(self):
        ring = self.ring
        kind = self.peek()
        if kind == "int":
            num = int(self.take()[1])
            den = 1
            if self.peek() == "/":
                self.take()
                den = int(self.take("int")[1])
                if not ring.coerce(den):
                    raise PolyParseError("zero denominator")
            coeff = ring.coerce(num if den == 1 else ring.domain.from_pair(num, den))
            if self.peek() == "*":
                save = self.pos
                self.take()
                if self.peek() != "name":
                    self.pos = save
                    return coeff, (0,) * ring.nvars
                return coeff, self.monomial()
            return coeff, (0,) * ring.nvars
        if kind == "name":
            return 1, self.monomial()
        tok = self.tokens[self.pos][1] if self.pos < len(self.tokens) else "end of input"
        raise PolyParseError(f"expected a term, found {tok!r}")

    def monomial(self):
        exps = [0] * self.ring.nvars
        while True:
            name = self.take("name")[1]
            if name not in self.ring.variables:
                raise UnknownVariableError(f"unknown variable {name!r}")
            power = 1
            if self.peek() == "^":
                self.take()
                power = int(self.take("int")[1])
                if power < 1:
                    raise PolyParseError("exponent must be positive")
            exps[self.ring.variables.index(name)] += power
            if self.peek() == "*" and self.pos + 1 < len(self.tokens) \
                    and self.tokens[self.pos + 1][0] == "name":
                self.take()
                continue
            break
        return tuple(exps)


def reference_parse(text: str, ring: PolyRing) -> HomogPoly:
    """The former ``parse_poly`` entry point, verbatim."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty input")
    return _Parser(tokens, ring).parse()


def outcome(parse, text, ring):
    """The polynomial, its degree and the degree's type, or the exception
    type and message."""
    try:
        f = parse(text, ring)
    except Exception as exc:
        return type(exc), str(exc)
    return f, f.degree, type(f.degree)


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(PIECES), max_size=8).map("".join))
def test_the_parser_matches_the_reference(text):
    for ring in RINGS:
        assert outcome(parse_poly, text, ring) == outcome(reference_parse, text, ring)


@pytest.mark.parametrize("text", [
    "u + 2*v - 1/3*w", "-u^2*v + v*w^2 - 7", "0", "3*u^1*u", "2/4",
    "u*3", "2*", "u*^2", "u^", "1/", "1/u", "", " \t", "u x", "u^0",
    "1/0", "u + v^2", "u -", "- + u",
    "u + -v", "u - -v", "--u", "- u", "u  + v", "u + v ", " u", "u +  v",
    "u + u", "u - u", "u*u + u^2", "0*u + v^2", "5*u + v^2", "2/4*u", "1/5*u",
    "1/10*u", "u^00001*v", "3*", "3*4", "u**v", "u^2^3", "-3/2*u - 0*v",
])
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: str(r.domain))
def test_the_parser_matches_the_reference_on_fixed_texts(ring, text):
    assert outcome(parse_poly, text, ring) == outcome(reference_parse, text, ring)


@pytest.mark.parametrize("ring", [PolyRing(PrimeField(3)), PolyRing(PrimeField(101)),
                                  PolyRing(QQ)], ids=lambda r: str(r.domain))
def test_a_ratio_is_stored_as_the_boxed_route_stores_it(ring):
    """n/d in the printer's form, read by ``_read``, and spaced apart, read
    by ``_walk``: the stored coefficient is the boxed route's
    ``ring.coerce(ring.domain.from_pair(n, d))``, the oracle; a
    denominator that vanishes in the ring is refused by both."""
    for n in (0, 1, 2, 3, 5, 100, 101, 303, 10 ** 25 + 1):
        for d in (0, 1, 2, 3, 4, 6, 9, 100, 101, 202, 10 ** 20 + 3):
            printed, spaced = f"{n}/{d}*u^2 - v*w", f"{n} / {d} * u^2 - v*w"
            assert poly._read(spaced, ring) is None  # left to the walker
            if not ring.coerce(d):
                assert poly._read(printed, ring) is None
                for text in (printed, spaced):
                    with pytest.raises(PolyParseError, match="^zero denominator$"):
                        parse_poly(text, ring)
                continue
            want = ring.coerce(ring.domain.from_pair(n, d))
            expected = sorted((exps, c, type(c)) for exps, c in
                              (((2, 0, 0), want), ((0, 1, 1), ring.coerce(-1))) if c)
            read = poly._read(printed, ring)
            assert (read is None) == (not want)
            for f in (read, poly._walk(printed, ring), poly._walk(spaced, ring)):
                if f is not None:
                    assert sorted((e, c, type(c)) for e, c in f.int_terms()) == expected


def test_an_arabic_indic_digit_is_an_int():
    ring = PolyRing(QQ)
    assert parse_poly("\u0663*u", ring) == ring.parse("3*u")
    assert reference_parse("\u0663*u", ring) == ring.parse("3*u")


@pytest.mark.parametrize("text", [
    "\u00bd", "\u00b2", "\u00b24", "\u00b22\u00bd", "u\u00b2", "\u00e9",
    "\u00e9 + u", "\u0663\u0663", "u^\u0663", "u\u0663", "\u216b",
    "\uff55", "u\u3000+\u3000v", "\u3000", "1/\u0663*v",
])
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: str(r.domain))
def test_non_ascii_text_is_refused_by_both_or_by_neither(ring, text):
    got = outcome(parse_poly, text, ring)
    want = outcome(reference_parse, text, ring)
    refused = isinstance(got[0], type), isinstance(want[0], type)
    assert refused[0] == refused[1]
    if not refused[0]:
        assert got == want


@pytest.mark.parametrize("text, error", [
    (f"u^{EXP_LIMIT}", None),
    (f"u^{EXP_LIMIT}*u", ExponentLimitError),
    (f"u^{EXP_LIMIT + 1}", ExponentLimitError),
    ("u^99999999999999999999", ExponentLimitError),
    (f"v^2 + u^{EXP_LIMIT + 1}", InhomogeneousError),
    (f"0*u^{EXP_LIMIT + 1}", None),
])
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: str(r.domain))
def test_the_parser_matches_the_reference_at_the_exponent_limit(ring, text, error):
    got = outcome(parse_poly, text, ring)
    assert got == outcome(reference_parse, text, ring)
    assert got[0] is error if error else isinstance(got[0], HomogPoly)


@pytest.mark.parametrize("seed", ["3", "7"])
@pytest.mark.parametrize("field", ["F101", "Q"])
@pytest.mark.parametrize("tag", ["F23", "F24", "F25minus", "F25plus"])
def test_the_parser_matches_the_reference_on_catalog_entries(tag, field, seed, capsys):
    argv = ["catalog", "--type", tag, "--seed", seed, "--prime", "101"]
    assert cli.main(argv + (["--rational"] if field == "Q" else [])) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    ring = PolyRing(QQ if field == "Q" else PrimeField(101))
    entries = payload["form" if "form" in payload else "net"]["entries"]
    for text in entries:
        got = outcome(parse_poly, text, ring)
        assert isinstance(got[0], HomogPoly)
        assert got == outcome(reference_parse, text, ring)


@st.composite
def well_formed_texts(draw):
    """Long texts in the grammar, one degree for every term: an optional
    leading '-', int and int/int coefficients, variables repeated or given
    a power, and any run of white space around every operator."""
    def space():
        return draw(st.sampled_from(("", " ", "  ", "\t")))

    def op(symbol):
        return space() + symbol + space()

    monomials = list(monomials_of_degree(3, draw(st.integers(0, 4))))
    terms = []
    for _ in range(draw(st.integers(1, 12))):
        factors = []
        for name, e in zip("uvw", draw(st.sampled_from(monomials))):
            while e:
                k = draw(st.integers(1, e))
                factors.append(name if k == 1 and draw(st.booleans())
                               else name + op("^") + str(k))
                e -= k
        factors = draw(st.permutations(factors))
        coeff = str(draw(st.integers(0, 300)))
        if draw(st.booleans()):
            coeff += op("/") + str(draw(st.integers(1, 30)))
        if factors and draw(st.booleans()):
            coeff = None
        terms.append(op("*").join(([coeff] if coeff else []) + factors))
    text = terms[0]
    for term in terms[1:]:
        text += op(draw(st.sampled_from("+-"))) + term
    return space() + (op("-") if draw(st.booleans()) else "") + text + space()


@settings(max_examples=200, deadline=None)
@given(text=well_formed_texts())
def test_the_parser_matches_the_reference_on_well_formed_texts(text):
    for ring in RINGS:
        got = outcome(parse_poly, text, ring)
        assert got == outcome(reference_parse, text, ring)
        if ring.domain is QQ:
            assert isinstance(got[0], HomogPoly)


# Texts where a digit runs straight into a letter or "_", which ``_TOKENS``
# splits into an int and a name, and texts with other white space.
@pytest.mark.parametrize("text", [
    "3u", "2*3u", "u^2v", "12_a", "\u0663u", "3*u\u0663", "u*v+w-3/4*u",
    "u*v+w-3/4*uv", "u\t+\tv", "u*v\n-\n2*w^2", "u\u00a0+\u00a02*v",
    "\n3\t*\u00a0u ", "u+\t-v", "2 u",
])
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: str(r.domain))
def test_the_parser_matches_the_reference_across_the_tokenizer_switch(ring, text):
    assert outcome(parse_poly, text, ring) == outcome(reference_parse, text, ring)


@pytest.mark.parametrize("text, error", [
    ("u^20000*v^20000", None),
    ("u^20000*u^20000", ExponentLimitError),
    (f"u^{EXP_LIMIT}*u", ExponentLimitError),
    ("v^2 + u^20000*u^20000", InhomogeneousError),
    ("u^20000*v^20000 - v^20000*u^20000", None),
    (f"w*u^{EXP_LIMIT} + u^{EXP_LIMIT}*w^2", InhomogeneousError),
])
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: str(r.domain))
def test_a_term_past_the_exponent_limit_in_degree_is_packed_by_pack(ring, text, error):
    got = outcome(parse_poly, text, ring)
    assert got == outcome(reference_parse, text, ring)
    assert got[0] is error if error else isinstance(got[0], HomogPoly)


@pytest.mark.parametrize("text", ["x y", "1a", "2*1a", "w + x y", "w^2*1a", "3*w"])
def test_a_variable_that_is_no_token_is_left_to_the_walker(text):
    ring = PolyRing(QQ, ("x y", "1a", "w"))
    assert outcome(parse_poly, text, ring) == outcome(reference_parse, text, ring)


def _no_walk(text, ring):
    raise AssertionError(f"the walker read {text!r}")


@pytest.mark.parametrize("domain", [PrimeField(7), PrimeField(101), QQ], ids=str)
def test_the_reader_alone_reads_every_catalog_entry(domain, monkeypatch):
    """Printed text takes the reader's path: with the walker patched to
    raise, every entry of the catalog documents of every type, seeds 0-11,
    reads back to itself."""
    monkeypatch.setattr(poly, "_walk", _no_walk)
    for tag in catalog.DelPezzoTag:
        for seed in range(12):
            if tag is catalog.DelPezzoTag.F25_PLUS:
                document = catalog.make_net(domain=domain, seed=seed)
            else:
                document = catalog.make_type(tag, domain=domain, seed=seed)
            for f in document.matrix.upper():
                g = f.ring.parse(str(f))
                assert (g, g.degree, type(g.degree)) == (f, f.degree, type(f.degree))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: str(r.domain))
def test_an_exponent_past_the_digit_limit_is_refused_by_name(ring):
    """An exponent of 4,400 digits, past the int-to-str digit limit, gets
    the parser's own errors, its digits in full."""
    power = "7" * 4400
    with pytest.raises(ExponentLimitError) as info:
        ring.parse(f"u^{power}")
    assert str(info.value) == f"exponent {power} is larger than EXP_LIMIT = {EXP_LIMIT}"
    with pytest.raises(InhomogeneousError) as info:
        ring.parse(f"v + u^{power}")
    assert str(info.value) == f"mixed degrees 1 and {power} in input"
