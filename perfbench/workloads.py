"""The three workloads: their input documents, jobs and output checks.

Every input comes from the program's own ``catalog`` command, seeded from
the benchmark's ``--seed``; base points are chosen here with ``exact``.
A check returns ``None`` when the output is right, else a message.  Checks
depend only on identities that hold for every seed.
"""

from __future__ import annotations

import json
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field

import exact

PRIME = 101
POINTS = PRIME * PRIME + PRIME + 1
LINE_TYPES = ("F23", "F24", "F25minus")
FIELDS = ("F101", "Q")
SYMBOLIC_COMMANDS = ("recover", "bsv-verify", "trace-pairing", "disc")
SYMBOLIC_GROUPS = 8
HILBERT_ORDER = 20
# Every workload has this document; the traced run scans it with the pool.
POOL_DOC = "F25minus_F101"
CONIC_BY_RANK = {3: "SmoothConic", 2: "LinePair", 1: "DoubleLine", 0: "WholePlane"}
# Base points per fiber document: (generic, on the degeneracy curve).
FIBER_POINTS_FP = (16, 8)
FIBER_POINTS_Q = 16


@dataclass(frozen=True)
class DocSpec:
    key: str
    tag: str
    field: str
    seed: int

    def catalog_argv(self) -> list:
        argv = ["catalog", "--type", self.tag, "--seed", str(self.seed),
                "--prime", str(PRIME)]
        return argv + (["--rational"] if self.field == "Q" else [])

    @property
    def p(self):
        return PRIME if self.field == "F101" else None


@dataclass
class Job:
    label: str
    doc: str
    argv: list = None          # a CLI job; otherwise ``point`` runs the
    point: tuple = None        # F25plus library chain at that point
    check: object = None       # callable(payload dict) -> None or message
    degenerate: bool = False   # base point where the form drops rank


@dataclass
class Workload:
    name: str
    seed: int
    docs: list
    plan: list = field(default_factory=list)
    jobs: list = field(default_factory=list)

    def describe(self, contents: dict) -> dict:
        """What the inputs look like: field and type mix, term counts,
        degenerate base points and documents reused within a pass."""
        def mix(key):
            return dict(sorted(Counter(key(job) for job in self.jobs).items()))

        spec = {d.key: d for d in self.docs}
        terms = []
        for d in self.docs:
            body = contents[d.key]
            entries = body["form" if "form" in body else "net"]["entries"]
            terms.append(sum(len(exact.parse(e, d.p)) for e in entries))
        seen, reused = set(), 0
        for job in self.jobs:
            reused += job.doc in seen
            seen.add(job.doc)
        point_jobs = [j for j in self.jobs if j.argv is None or j.argv[0] == "fiber"]
        return {
            "seed": self.seed,
            "jobs_per_pass": len(self.jobs),
            "documents": len(self.docs),
            "fields": mix(lambda j: spec[j.doc].field),
            "types": mix(lambda j: spec[j.doc].tag),
            "commands": mix(lambda j: j.argv[0] if j.argv else "f25plus-chain"),
            "terms_per_document": {"min": min(terms),
                                   "median": statistics.median(terms),
                                   "max": max(terms)},
            "rank_below_3_share": (
                round(sum(j.degenerate for j in point_jobs) / len(point_jobs), 4)
                if point_jobs else None),
            "document_reuse_share": round(reused / len(self.jobs), 4),
        }


# ------------------------------------------------------------------- checks

def _entries(body, p):
    return [exact.parse(e, p) for e in body["form"]["entries"]]


def check_scan(payload):
    census = payload["census"]
    if sum(census.values()) != POINTS or payload["points"] != POINTS:
        return f"census sums to {sum(census.values())}, not {POINTS}"
    low = census["LinePair"] + census["DoubleLine"] + census["WholePlane"]
    if payload["discriminant_zero_points"] != low:
        return "discriminant zero points disagree with the rank census"
    return None


def check_recover(body, p):
    def check(payload):
        sign = payload["sign"]
        if sign not in (1, -1):
            return f"sign {sign}"
        want = [e if sign == 1 else exact.neg(e, p) for e in _entries(body, p)]
        got = [exact.parse(e, p) for e in payload["entries"]]
        return None if got == want else "recovered entries are not sign * input"
    return check


def check_bsv(payload):
    if payload["all_divisible"] is not True or payload["named_identities_ok"] is not True:
        return "minor identities fail"
    return None


def check_trace_pairing(body, p):
    def check(payload):
        want = exact.neg_adjugate3(exact.upper_to_grid(_entries(body, p)), p)
        got = [[exact.parse(e, p) for e in row] for row in payload["pairing"]]
        return None if got == want else "pairing is not -adjugate3 of the input"
    return check


def check_disc(payload):
    if payload["degree"] != payload["expected_degree"]:
        return f"degree {payload['degree']} != {payload['expected_degree']}"
    return None


def check_validate_net(payload):
    if payload.get("kind") != "net" or payload.get("quintic_degree") != 5:
        return "net does not report quintic_degree 5"
    return None


def check_hilbert(payload):
    if payload["brute_force_checked_degrees"] != list(range(0, HILBERT_ORDER + 1, 2)) \
            or len(payload["coefficients"]) != HILBERT_ORDER + 1:
        return "hilbert series not checked to the requested order"
    return None


def check_fiber(degenerate):
    def check(payload):
        rank = payload["rank"]
        if rank not in CONIC_BY_RANK:
            return f"rank {rank}"
        if (rank < 3) != degenerate:
            return f"rank {rank} disagrees with the benchmark's discriminant"
        if payload.get("conic_type", CONIC_BY_RANK[rank]) != CONIC_BY_RANK[rank]:
            return "conic type does not match rank"
        if payload["algebra_type"] != 4 - rank:
            return "algebra type does not match rank"
        if payload.get("azumaya", rank == 3) != (rank == 3):
            return "azumaya does not match rank"
        return None
    return check


PAYLOAD_CHECKS = {"scan": check_scan, "bsv-verify": check_bsv, "disc": check_disc,
                  "validate": check_validate_net, "hilbert": check_hilbert}


# ------------------------------------------------------- workload construction

def build(name: str, seed: int) -> Workload:
    """Documents and (command, document) plan of a workload.

    Documents made with catalog seed ``seed`` itself are the fixed inputs
    of the ROADMAP; symbolic adds documents from further seeds drawn from it.
    """
    plan = []
    if name == "scan":
        docs = [DocSpec(f"{t}_{f}", t, f, seed) for t in LINE_TYPES for f in FIELDS]
        plan = [("scan", d.key) for d in docs]
    elif name == "symbolic":
        docs = [DocSpec(f"{t}_{f}", t, f, seed) for t in LINE_TYPES for f in FIELDS]
        plan = [(cmd, d.key) for d in docs for cmd in SYMBOLIC_COMMANDS]
        seeds = iter(random.Random(seed).sample(range(1, 10 ** 6), 400))
        for k in range(1, SYMBOLIC_GROUPS):
            for t in LINE_TYPES:
                for f in FIELDS:
                    for cmd in SYMBOLIC_COMMANDS:
                        docs.append(DocSpec(f"{t}_{f}_{cmd}_{k}", t, f, next(seeds)))
                        plan.append((cmd, docs[-1].key))
        for k in range(SYMBOLIC_GROUPS):
            for f in FIELDS:
                docs.append(DocSpec(f"F25plus_{f}_{k}", "F25plus", f, next(seeds)))
                plan.append(("validate", docs[-1].key))
        plan += [("hilbert", f"{t}_Q") for t in LINE_TYPES]
    elif name == "fiber":
        docs = [DocSpec(f"{t}_{f}", t, f, seed)
                for t in ("F25minus", "F24") for f in FIELDS]
        docs.append(DocSpec("F25plus_F101", "F25plus", "F101", seed))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, seed, docs, plan)


def add_jobs(w: Workload, paths: dict, contents: dict) -> None:
    """Jobs of one pass, in a fixed order, once the documents exist."""
    spec = {d.key: d for d in w.docs}
    for cmd, key in w.plan:
        body, p = contents[key], spec[key].p
        argv = [cmd, paths[key]]
        if cmd == "scan":
            argv += ["--prime", str(PRIME)]
        elif cmd == "hilbert":
            argv += ["--order", str(HILBERT_ORDER)]
        if cmd == "recover":
            check = check_recover(body, p)
        elif cmd == "trace-pairing":
            check = check_trace_pairing(body, p)
        else:
            check = PAYLOAD_CHECKS[cmd]
        w.jobs.append(Job(f"{cmd} {key}", key, argv, check=check))
    if w.name != "fiber":
        return
    rng = random.Random(w.seed * 7919 + 1)
    for d in w.docs:
        for point, degenerate in _base_points(_grid(contents[d.key], d.p), d.p, rng):
            if d.tag == "F25plus":
                job = Job(f"f25plus-chain {d.key} {_fmt(point)}", d.key, point=point)
            else:
                job = Job(f"fiber {d.key} {_fmt(point)}", d.key,
                          ["fiber", paths[d.key], f"--point={_fmt(point)}"])
            job.degenerate, job.check = degenerate, check_fiber(degenerate)
            w.jobs.append(job)


def _fmt(point) -> str:
    return ":".join(str(x) for x in point)


def _pick(points, vanishes, want_generic, want_degenerate):
    """The first points of each kind, generic ones first."""
    generic, degenerate = [], []
    for pt in points:
        if len(generic) == want_generic and len(degenerate) == want_degenerate:
            break
        bucket = degenerate if vanishes(pt) else generic
        want = want_degenerate if bucket is degenerate else want_generic
        if len(bucket) < want:
            bucket.append(pt)
    return [(pt, False) for pt in generic] + [(pt, True) for pt in degenerate]


def _base_points(grid, p, rng):
    """(point, degenerate) pairs for a symmetric matrix of polynomials: over
    F_p a stated mix of points where its determinant is nonzero and points
    where it vanishes, over Q nonzero points only."""
    def vanishes(pt):
        return not exact.det(exact.grid_values(grid, pt, p), p)

    if p is not None:
        points = list(exact.projective_points(p))
        rng.shuffle(points)
        return _pick(points, vanishes, *FIBER_POINTS_FP)
    points = (tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(10 ** 4))
    return _pick((pt for pt in points if any(pt)), vanishes, FIBER_POINTS_Q, 0)


def _grid(body, p):
    """Symmetric matrix of a form (3x3) or a net (5x5) document."""
    if "form" in body:
        return exact.upper_to_grid(_entries(body, p))
    upper = iter([exact.parse(e, p) for e in body["net"]["entries"]])
    grid = [[None] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i, 5):
            grid[i][j] = grid[j][i] = next(upper)
    return grid


def parse_stdout(text: str):
    """(status, payload) of one CLI report."""
    report = json.loads(text)
    return report["status"], report["payload"]
