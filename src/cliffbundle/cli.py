"""Command-line front end.

Input documents are UTF-8 JSON:

    {"scalar_domain": "rational" | {"prime": p},
     "form": {"a": [a1, a2, a3], "d": d,
              "entries": [Q11, Q12, Q13, Q22, Q23, Q33]}}   (upper triangle)
  or
    {"scalar_domain": ..., "net": {"entries": [15 linear forms]}}

with polynomial strings in the grammar

    poly := term (('+'|'-') term)* ; term := coeff ('*' monomial)? | monomial
    coeff := int ('/' posint)? ; monomial := var ('^' posint)? ('*' ...)
    var := 'u' | 'v' | 'w'

Machine-readable JSON goes to stdout (byte-identical for a fixed input and
seed); a one-line human summary with timing goes to stderr.  Exit codes:
0 success, 1 invalid input, 2 mathematical failure (the report names the
violated contract), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import brauer_severi, catalog, clifford, invariants, qform
from .errors import (
    AsymmetricEntriesError,
    BasePointSingularError,
    CliffBundleError,
    DegenerateAfterRetriesError,
    DegreeMismatchError,
    DegreePatternError,
    InconsistentInvariantsError,
    IndexOutOfRangeError,
    InhomogeneousError,
    InternalInvariantError,
    InvalidAlgebraError,
    MinorNotDivisibleError,
    NonExpandableError,
    NotAPerfectSquareError,
    NotDivisibleError,
    NotRecoverableError,
    OddDegreeError,
    PolyParseError,
    UnknownTagError,
    UnknownVariableError,
    ZeroPolynomialError,
)
from .poly import PolyRing
from .qform import FiberPoint, QForm
from .scalars import QQ, DEFAULT_SCAN_PRIME, PrimeField
from .series import series_expand

INPUT_ERRORS = (
    PolyParseError, UnknownVariableError, InhomogeneousError,
    AsymmetricEntriesError, DegreePatternError, IndexOutOfRangeError,
    UnknownTagError, ZeroPolynomialError, OddDegreeError, DegreeMismatchError,
    ValueError, KeyError, TypeError, json.JSONDecodeError, OSError,
)

MATH_ERRORS = (
    NotRecoverableError, InconsistentInvariantsError,
    DegenerateAfterRetriesError, MinorNotDivisibleError,
    BasePointSingularError, NotDivisibleError, NotAPerfectSquareError,
    NonExpandableError, InvalidAlgebraError, ZeroDivisionError,
)


# ----------------------------------------------------------------- input side

def load_domain(spec):
    if spec == "rational":
        return QQ
    if isinstance(spec, dict) and "prime" in spec:
        return PrimeField(int(spec["prime"]))
    raise ValueError(f"bad scalar_domain {spec!r}")


def domain_spec(domain):
    if isinstance(domain, PrimeField):
        return {"prime": domain.p}
    return "rational"


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if ("form" in doc) == ("net" in doc):
        raise ValueError("document must contain exactly one of 'form'/'net'")
    return doc


def form_from_document(doc: dict) -> QForm:
    domain = load_domain(doc.get("scalar_domain", "rational"))
    ring = PolyRing(domain)
    body = doc["form"]
    entries = [ring.parse(s) for s in body["entries"]]
    if len(entries) != 6:
        raise ValueError("form needs 6 upper-triangle entries")
    return qform.qform_from_upper(tuple(body["a"]), int(body["d"]), entries)


def net_from_document(doc: dict) -> catalog.QuadricNet:
    domain = load_domain(doc.get("scalar_domain", "rational"))
    ring = PolyRing(domain)
    entries = [ring.parse(s) for s in doc["net"]["entries"]]
    return catalog.net_from_upper(ring, entries)


def parse_point(text: str, domain) -> FiberPoint:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--point wants x:y:z, got {text!r}")
    coords = []
    for part in parts:
        part = part.strip()
        if "/" in part:
            num, den = part.split("/", 1)
            coords.append(domain.from_pair(int(num), int(den)))
        else:
            coords.append(domain(int(part)))
    return FiberPoint.make(domain, coords)


def reduce_mod(q: QForm, p: int) -> QForm:
    """Reduce a rational form modulo p (fails if a denominator vanishes)."""
    field = PrimeField(p)
    ring = PolyRing(field, q.ring.variables)
    grid = [[ring.poly({e: field(c) for e, c in q.entry(i, j).iter_terms()})
             for j in range(3)] for i in range(3)]
    return qform.new_qform(q.a, q.d, grid)


def upper_entries(matrix) -> list:
    return [str(matrix.entry(i, j)) for i in range(3) for j in range(i, 3)]


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
    rank = qform.rank_at(q, p)
    conic = qform.fiber_conic_type(q, p)
    algebra = clifford.classify(clifford.fiber_algebra_at(q, p))
    return {"point": str(p),
            "rank": rank,
            "conic_type": conic.value,
            "algebra_type": int(algebra),
            "algebra_type_name": algebra.name,
            "azumaya": clifford.azumaya_at(q, p)}


def cmd_fiber(args):
    q = form_from_document(load_document(args.input))
    return _fiber_payload(q, parse_point(args.point, q.domain))


def cmd_classify(args):
    q = form_from_document(load_document(args.input))
    p = parse_point(args.point, q.domain)
    algebra = clifford.classify(clifford.fiber_algebra_at(q, p))
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
    return invariants.report(args.type).as_dict()


def cmd_catalog(args):
    tag = catalog.DelPezzoTag.coerce(args.type)
    domain = QQ if args.rational else PrimeField(args.prime)
    spec = domain_spec(domain)
    if tag is catalog.DelPezzoTag.F25_PLUS:
        net = catalog.make_net(domain=domain, seed=args.seed)
        entries = [str(net.matrix.entry(i, j))
                   for i in range(5) for j in range(i, 5)]
        return {"scalar_domain": spec, "net": {"entries": entries}}
    q = catalog.make_type(tag, domain=domain, seed=args.seed)
    return {"scalar_domain": spec,
            "form": {"a": list(q.a), "d": q.d, "entries": upper_entries(q.matrix)}}


def cmd_hilbert(args):
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p = add("invariants", cmd_invariants, needs_input=False)
    p.add_argument("--type", required=True,
                   choices=["F23", "F24", "F25plus", "F25minus"])
    p = add("catalog", cmd_catalog, needs_input=False)
    p.add_argument("--type", required=True,
                   choices=["F23", "F24", "F25plus", "F25minus"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prime", type=int, default=DEFAULT_SCAN_PRIME)
    p.add_argument("--rational", action="store_true",
                   help="generate over the rationals instead of F_p")
    p = add("hilbert", cmd_hilbert)
    p.add_argument("--order", type=int, default=20)
    p = add("scan", cmd_scan)
    p.add_argument("--prime", type=int, required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    status, payload, code = "ok", None, 0
    try:
        payload = args.fn(args)
    except InternalInvariantError as exc:
        status, code = "internal-error", 3
        payload = {"error": type(exc).__name__, "message": str(exc)}
    except MATH_ERRORS as exc:
        status, code = "math-failure", 2
        payload = {"error": type(exc).__name__,
                   "contract": str(exc)}
    except INPUT_ERRORS as exc:
        status, code = "invalid-input", 1
        payload = {"error": type(exc).__name__, "message": str(exc)}
    except CliffBundleError as exc:
        status, code = "invalid-input", 1
        payload = {"error": type(exc).__name__, "message": str(exc)}
    report = {"command": args.command, "status": status, "payload": payload}
    print(json.dumps(report, indent=2, sort_keys=True, default=str))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"{args.command}: {status} ({elapsed_ms:.1f} ms)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
