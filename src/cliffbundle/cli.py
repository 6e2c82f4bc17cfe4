"""Command-line front end.

Input documents are UTF-8 JSON, read as bytes and decoded once, each CRLF
and lone CR line end read as LF, as text mode reads them:

    {"scalar_domain": "rational" | {"prime": p},
     "form": {"a": [a1, a2, a3], "d": d,
              "entries": [Q11, Q12, Q13, Q22, Q23, Q33]}}   (upper triangle)
  or
    {"scalar_domain": ..., "net": {"entries": [15 linear forms]}}

with polynomial strings in the grammar below, white space allowed around
every token:

    poly     := ['-'] term (('+'|'-') term)*
    term     := coeff ('*' monomial)? | monomial
    coeff    := int ('/' posint)?
    monomial := var ('^' posint)? ('*' var ('^' posint)?)*
    var      := 'u' | 'v' | 'w'

Polynomial text in the printer's own form (terms joined by " + " and
" - ", as every report writes them) is read a term at a time; any other
text of the grammar is read token by token.

Machine-readable JSON goes to stdout (byte-identical for a fixed input and
seed), the text ``json.dumps(report, indent=2, sort_keys=True,
default=str)`` gives, written by ``json_text``; a one-line human summary
with timing goes to stderr.  Exit codes:
0 success, 1 invalid input, 2 mathematical failure (the report names the
violated contract), 3 internal invariant violation or any other bug; the
status and code of a failed command are what ``errors.band`` gives for its
exception, and ``catalog.report`` gives the ``invariants`` row.  A
malformed command line is invalid input too: argparse's usage and message
go to stderr, nothing to stdout, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from . import brauer_severi, catalog, clifford, poly, qform
from .errors import DigitLimitError, InternalInvariantError, OrderTooLargeError, band
from .poly import INT_DIGIT_FLOOR, PolyRing
from .qform import FiberPoint, QForm
from .scalars import QQ, DEFAULT_SCAN_PRIME, PrimeField
from .series import series_expand

#: Largest ``hilbert --order``: the brute-force check of every even degree
#: up to the order takes about order^3 steps.
HILBERT_ORDER_LIMIT = 500

#: Most decimal digits of an integer in a document or a ``--point``
#: coordinate where the interpreter sets no lower limit of its own:
#: CPython's default limit on int <-> str conversion, which Python 3.10
#: before 3.10.7 does not have.
INT_DIGIT_LIMIT = 4300


# ----------------------------------------------------------------- input side

def int_digit_limit() -> int:
    """The most decimal digits an integer of a document or a ``--point``
    coordinate may have: the interpreter's int <-> str limit (as
    ``PYTHONINTMAXSTRDIGITS`` sets it) where that is lower, else
    INT_DIGIT_LIMIT.  A longer integer is refused with DigitLimitError,
    whose message gives this limit and never the integer."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    return min(limit, INT_DIGIT_LIMIT) if limit else INT_DIGIT_LIMIT


def json_int(value, name: str) -> int:
    """A document field that must be a JSON integer of at most
    ``int_digit_limit()`` digits; a bool is not one."""
    if type(value) is int:
        # An int of more than k digits is at least 10^k > 2^(3k).
        if value.bit_length() > 3 * INT_DIGIT_FLOOR:
            limit = int_digit_limit()
            if abs(value) >= 10 ** limit:
                raise DigitLimitError(f"{name} has more than {limit} digits")
        return value
    raise ValueError(f"{name} must be a JSON integer, got {json.dumps(value)}")


def load_domain(spec):
    if spec == "rational":
        return QQ
    if isinstance(spec, dict) and "prime" in spec:
        return PrimeField(json_int(spec["prime"], "scalar_domain.prime"))
    raise ValueError(f"bad scalar_domain {spec!r}")


def domain_spec(domain):
    if isinstance(domain, PrimeField):
        return {"prime": domain.p}
    return "rational"


def load_document(path: str) -> dict:
    """The JSON object in the file at ``path``: one read of its bytes, one
    UTF-8 decode, each CRLF and lone CR line end turned into LF as text mode
    turns it, then ``json.loads``.  So the document, and every exception
    with its message, is what ``json.load(open(path, encoding="utf-8"))``
    gives, except two refusals by name: a document that nests too deeply,
    and one that holds an integer that ``json.loads`` refuses for its
    digits (DigitLimitError, naming ``int_digit_limit()``).  A document that is no object, or has both or
    neither of ``form`` and ``net``, is refused too."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("document nests too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        # json's one other ValueError: int() refused a digit run.
        raise DigitLimitError(f"the document holds an integer of more than "
                              f"{int_digit_limit()} digits") from None
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    if ("form" in doc) == ("net" in doc):
        raise ValueError("document must contain exactly one of 'form'/'net'")
    return doc


def body_field(doc: dict, body: str, name: str):
    """Field ``name`` of ``doc[body]``, a JSON object that must have it."""
    fields = doc[body]
    if type(fields) is not dict:
        raise ValueError(f"{body} must be a JSON object")
    if name not in fields:
        raise ValueError(f"{body}.{name} is missing")
    return fields[name]


def document_entries(doc: dict, body: str) -> tuple:
    """The ring of a document and the polynomials of its ``entries``,
    which must be a JSON array of JSON strings."""
    ring = PolyRing(load_domain(doc.get("scalar_domain", "rational")))
    texts = body_field(doc, body, "entries")
    if type(texts) is not list:
        raise ValueError(f"{body}.entries must be a JSON array of strings, "
                         f"got {json.dumps(texts)}")
    for i, text in enumerate(texts):
        if type(text) is not str:
            raise ValueError(f"{body}.entries[{i}] must be a JSON string, "
                             f"got {json.dumps(text)}")
    return ring, [ring.parse(text) for text in texts]


def form_from_document(doc: dict) -> QForm:
    if "form" not in doc:
        raise ValueError("this command needs a 'form' document, got a 'net' document")
    _, entries = document_entries(doc, "form")
    if len(entries) != 6:
        raise ValueError("form needs 6 upper-triangle entries")
    a = body_field(doc, "form", "a")
    if type(a) is not list:
        raise ValueError(f"form.a must be a JSON array of integers, "
                         f"got {json.dumps(a)}")
    a = tuple(json_int(x, f"form.a[{i}]") for i, x in enumerate(a))
    d = json_int(body_field(doc, "form", "d"), "form.d")
    return qform.qform_from_upper(a, d, entries)


def net_from_document(doc: dict) -> catalog.QuadricNet:
    return catalog.net_from_upper(*document_entries(doc, "net"))


def point_int(text: str) -> int:
    """An integer of a ``--point`` coordinate, of at most
    ``int_digit_limit()`` digits."""
    if len(text) > INT_DIGIT_FLOOR:
        limit = int_digit_limit()
        if sum(map(str.isdecimal, text)) > limit:
            raise DigitLimitError(f"a --point coordinate has more than {limit} digits")
    return int(text)


def parse_point(text: str, domain) -> FiberPoint:
    """The point ``x:y:z``, each coordinate an integer or a fraction
    ``n/d``; ``FiberPoint.make`` coerces each into the domain once."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--point wants x:y:z, got {text!r}")
    coords = []
    for part in parts:
        part = part.strip()
        if "/" in part:
            num, den = map(point_int, part.split("/", 1))
            if not domain(den):
                raise ValueError(f"denominator of {part!r} is zero in {domain!r}")
            coords.append(domain.from_pair(num, den))
        else:
            coords.append(point_int(part))
    return FiberPoint.make(domain, coords)


def reduce_mod(q: QForm, p: int) -> QForm:
    """Reduce a rational form modulo p.  A coefficient whose denominator
    vanishes mod p is bad input: ValueError names the entry and p."""
    ring = PolyRing(PrimeField(p), q.ring.variables)
    upper = []
    for i, f in enumerate(q.matrix.upper()):
        try:
            upper.append(poly.reduce_mod(f, ring))
        except ZeroDivisionError:
            raise ValueError(f"form.entries[{i}] ({f}) has a coefficient whose "
                             f"denominator vanishes mod {p}") from None
    return qform.qform_from_upper(q.a, q.d, upper)


def upper_entries(matrix) -> list:
    return [str(f) for f in matrix.upper()]


# ------------------------------------------------------------------ output side

# The text of each JSON scalar a report holds, by exact type.
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: {False: "false", True: "true"}.__getitem__,
            type(None): {None: "null"}.__getitem__}


def json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, default=str)``.  The
    json module writes indented text in pure Python, through closures that
    only the cyclic collector frees; here the scalars of ``_SCALARS`` and
    nonempty dicts, lists and tuples are written directly, and any other
    value (a key that is not a str, too) by ``json.dumps`` without indent,
    its C encoder.  ``indent`` is the line break and indentation before
    the value's closing bracket."""
    write = _SCALARS.get(type(value))
    if write is not None:
        return write(value)
    inner = indent + "  "
    if isinstance(value, dict) and value:
        return "{" + inner + f",{inner}".join([
            f"{encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k))}: "
            f"{json_text(v, inner)}" for k, v in sorted(value.items())]) + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        return ("[" + inner + f",{inner}".join([json_text(v, inner) for v in value])
                + indent + "]")
    return json.dumps(value, default=str)


# ------------------------------------------------------------------- commands

def cmd_validate(args):
    doc = load_document(args.input)
    if "form" in doc:
        q = form_from_document(doc)
        return {"kind": "form", "a": list(q.a), "d": q.d,
                "entry_degrees": [list(r) for r in q.pattern()]}
    net = net_from_document(doc)
    return {"kind": "net", "size": 5,
            "quintic_degree": catalog.make_f25plus(net).det5.degree}


def cmd_normalize(args):
    q = form_from_document(load_document(args.input))
    m = -(q.d + sum(q.a))
    out = qform.normalize(q)
    return {"twist": m, "a": list(out.a), "d": out.d,
            "entries": upper_entries(out.matrix)}


def cmd_disc(args):
    q = form_from_document(load_document(args.input))
    f = qform.discriminant(q)
    return {"discriminant": str(f),
            "degree": f.degree,
            "expected_degree": 2 * sum(q.a) + 3 * q.d}


def _fiber_payload(q: QForm, p: FiberPoint) -> dict:
    rank, algebra = clifford.fiber_at(q, p)
    return {"point": str(p),
            "rank": rank,
            "conic_type": qform.CONIC_BY_RANK[rank].value,
            "algebra_type": int(algebra),
            "algebra_type_name": algebra.name,
            "azumaya": algebra is clifford.AlgebraType.CENTRAL_SIMPLE}


def cmd_fiber(args):
    q = form_from_document(load_document(args.input))
    return _fiber_payload(q, parse_point(args.point, q.domain))


def cmd_classify(args):
    q = form_from_document(load_document(args.input))
    p = parse_point(args.point, q.domain)
    _, algebra = clifford.fiber_at(q, p)
    return {"point": str(p), "algebra_type": int(algebra),
            "algebra_type_name": algebra.name,
            "is_even_clifford": algebra.is_even_clifford}


def cmd_bsv_verify(args):
    q = form_from_document(load_document(args.input))
    report = brauer_severi.verify_minors(q)
    quotients = {f"({r},{c})": str(report.quotient(r, c))
                 for r in range(1, 5) for c in range(1, 5)}
    return {"conic": str(report.conic),
            "all_divisible": True,
            "named_identities_ok": report.named_ok,
            "quotients": quotients}


def cmd_trace_pairing(args):
    q = form_from_document(load_document(args.input))
    pairing = clifford.trace_pairing_global(q)
    return {"pairing": [[str(pairing.entry(i, j)) for j in range(3)]
                        for i in range(3)]}


def cmd_recover(args):
    q = form_from_document(load_document(args.input))
    pairing = clifford.trace_pairing_global(q)
    recovered = clifford.recover_form(pairing)
    if recovered == q.matrix:
        sign = 1
    elif recovered == -q.matrix:
        sign = -1
    else:
        raise InternalInvariantError("recovered form is not the input up to sign")
    return {"sign": sign, "entries": upper_entries(recovered)}


def cmd_invariants(args):
    return catalog.report(args.type)


def cmd_catalog(args):
    tag = catalog.DelPezzoTag.coerce(args.type)
    domain = QQ if args.rational else PrimeField(args.prime)
    spec = domain_spec(domain)
    if tag is catalog.DelPezzoTag.F25_PLUS:
        net = catalog.make_net(domain=domain, seed=args.seed)
        return {"scalar_domain": spec, "net": {"entries": upper_entries(net.matrix)}}
    q = catalog.make_type(tag, domain=domain, seed=args.seed)
    return {"scalar_domain": spec,
            "form": {"a": list(q.a), "d": q.d, "entries": upper_entries(q.matrix)}}


def cmd_hilbert(args):
    if args.order > HILBERT_ORDER_LIMIT:
        raise OrderTooLargeError(f"--order {args.order} is larger than "
                                 f"HILBERT_ORDER_LIMIT = {HILBERT_ORDER_LIMIT}")
    q = form_from_document(load_document(args.input))
    series = clifford.gamma_hilbert_series(q)
    coeffs = series_expand(series, args.order)
    checked = []
    for n in range(0, args.order + 1, 2):
        brute = clifford.gamma_dimension_bruteforce(q, n)
        if brute != coeffs[n]:
            raise InternalInvariantError(
                f"series coefficient {coeffs[n]} != brute-force count {brute} "
                f"in degree {n}")
        checked.append(n)
    return {"numerator": list(series.numerator),
            "denominator": list(series.denominator),
            "coefficients": coeffs,
            "brute_force_checked_degrees": checked}


def cmd_scan(args):
    points = qform.check_scan_size(args.prime)
    q = form_from_document(load_document(args.input))
    if isinstance(q.domain, PrimeField):
        if q.domain.p != args.prime:
            raise ValueError(
                f"document lives over F_{q.domain.p}, --prime says {args.prime}")
    else:
        q = reduce_mod(q, args.prime)
    result = qform.fiber_census(q)
    return {"prime": args.prime,
            "points": points,
            "census": {t.value: n for t, n in result.counts.items()},
            "discriminant_zero_points": result.discriminant_zeros}


# ----------------------------------------------------------------- entry point

class CommandLineParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, invalid input, after
    printing argparse's usage and message to stderr.  Its subparsers are of
    this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> CommandLineParser:
    """The argument parser, built once per process and shared: do not alter
    it.  ``commands`` maps each command to its subparser."""
    parser = CommandLineParser(
        prog="cliffbundle",
        description="even Clifford algebras of plane conic bundles, exactly")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, *, needs_input=True):
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("input", help="path to a JSON input document")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate)
    add("normalize", cmd_normalize)
    add("disc", cmd_disc)
    p = add("fiber", cmd_fiber)
    p.add_argument("--point", required=True, help="base point x:y:z")
    p = add("classify", cmd_classify)
    p.add_argument("--point", required=True, help="base point x:y:z")
    add("bsv-verify", cmd_bsv_verify)
    add("trace-pairing", cmd_trace_pairing)
    add("recover", cmd_recover)
    types = [tag.value for tag in catalog.DelPezzoTag]
    p = add("invariants", cmd_invariants, needs_input=False)
    p.add_argument("--type", required=True, choices=types)
    p = add("catalog", cmd_catalog, needs_input=False)
    p.add_argument("--type", required=True, choices=types)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prime", type=int, default=DEFAULT_SCAN_PRIME)
    p.add_argument("--rational", action="store_true",
                   help="generate over the rationals instead of F_p")
    p = add("hilbert", cmd_hilbert)
    p.add_argument("--order", type=int, default=20)
    p = add("scan", cmd_scan)
    p.add_argument("--prime", type=int, required=True)
    parser.commands = sub.choices
    return parser


def parse_command_line(argv) -> argparse.Namespace:
    """argv parsed by the subparser of its first word, skipping argparse's
    top-level pass, when that word names a command and the subparser reads
    every other word.  Otherwise the full parser parses argv, so help and
    usage errors print the same text on both routes."""
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_command_line(sys.argv[1:] if argv is None else list(argv))
    started = time.perf_counter()
    status, payload, code = "ok", None, 0
    try:
        payload = args.fn(args)
    except Exception as exc:
        status, code = band(exc)
        payload = {"error": type(exc).__name__,
                   "contract" if code == 2 else "message": str(exc)}
    report = {"command": args.command, "status": status, "payload": payload}
    print(json_text(report))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"{args.command}: {status} ({elapsed_ms:.1f} ms)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
