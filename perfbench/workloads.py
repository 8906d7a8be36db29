"""The benchmark's workloads, their seeded inputs and their correctness gate.

A workload is a fixed list of permlab CLI jobs.  Every job runs in a fresh
process, so each one pays interpreter start, import and group construction
just as a CLI user does.  Inputs that depend on the seed are written here, in
pure Python, so the program under test sees only generated flags and files.

Correctness: a job passes when it exits 0 and its report checks out.
Seed-invariant jobs compare against a frozen report in ``expected/``;
seed-dependent jobs pass their embedded checks, match the seed-invariant
fields, and pass an independent check computed here from the planted input.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
GAP_TOLERANCE = 1e-9  # a future iterative eigensolver may move the last digits


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``argv`` excludes ``--seed`` and ``-o``."""

    name: str
    argv: tuple[str, ...]
    # frozen report this job's report must equal, by file stem in expected/
    expected: str | None = None
    # report keys (dotted) that echo seed-dependent input, skipped when comparing
    ignore: tuple[str, ...] = ()
    # independent check of a seed-dependent report: report -> list of problems
    check: object = field(default=None, compare=False)


# -- seeded inputs ----------------------------------------------------------------------

def _even(p) -> bool:
    seen, cycles = [False] * len(p), 0
    for i in range(len(p)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
    return (len(p) - cycles) % 2 == 0


def _compose(p, q):
    """(p∘q)(i) = p(q(i)), permlab's product convention."""
    return tuple(p[j] for j in q)


def _cycles(p) -> str:
    """1-based cycle notation with fixed points omitted; '()' for the identity."""
    seen, out = [False] * len(p), []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            continue
        cyc, j = [], i
        while not seen[j]:
            seen[j] = True
            cyc.append(str(j + 1))
            j = p[j]
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out) or "()"


def _hamming(p, q) -> Fraction:
    return Fraction(sum(a != b for a, b in zip(p, q)), len(p))


def alt7_graph_text(rng: random.Random) -> str:
    """The left-regular Schreier graph of Alt(7) on the generators permlab uses
    for ``regular:alt7`` (3-cycles (1 2 k), labels s1..s5), with its 2520
    vertices renumbered by a seeded permutation.  Every field of its
    ``--mode report`` equals that of ``regular:alt7``."""
    elems = [p for p in itertools.permutations(range(7)) if _even(p)]
    index = {p: i for i, p in enumerate(elems)}
    gens = []
    for k in range(2, 7):
        t = list(range(7))
        t[0], t[1], t[k] = 1, k, 0
        gens.append(tuple(t))
    relabel = list(range(len(elems)))
    rng.shuffle(relabel)
    labels = [f"s{k + 1}" for k in range(len(gens))]
    lines = [f"n={len(elems)} labels={','.join(labels)}"]
    for label, g in zip(labels, gens):
        for x, xt in enumerate(elems):
            y = index[_compose(g, xt)]
            lines.append(f"{relabel[x] + 1} {label} {relabel[y] + 1}")
    return "\n".join(lines) + "\n"


def regular_c4xc2_perms(rng: random.Random) -> tuple[tuple, tuple]:
    """(1 2 3 4)(5 6 7 8) and (1 5)(2 6)(3 7)(4 8), conjugated by a seeded
    relabelling of the 8 points.  They generate C4 x C2 acting regularly, so
    the centralizer has order 8 whatever the seed."""
    a = (1, 2, 3, 0, 5, 6, 7, 4)
    b = (4, 5, 6, 7, 0, 1, 2, 3)
    pi = list(range(8))
    rng.shuffle(pi)
    inv = [0] * 8
    for i, v in enumerate(pi):
        inv[v] = i
    return tuple(_compose(pi, _compose(p, inv)) for p in (a, b))


def perturbed_sym4_hom(rng: random.Random):
    """Sym(4) -> Sym(5): the natural embedding conjugated by a seeded
    relabelling, with the images of 3 non-identity elements replaced.
    Returns (domain tuples, images, planted homomorphism images)."""
    domain = list(itertools.permutations(range(4)))
    pi = list(range(5))
    rng.shuffle(pi)
    inv = [0] * 5
    for i, v in enumerate(pi):
        inv[v] = i
    planted = [_compose(pi, _compose(g + (4,), inv)) for g in domain]
    images = list(planted)
    all5 = list(itertools.permutations(range(5)))
    for k in rng.sample(range(1, len(domain)), 3):  # domain[0] is the identity
        images[k] = rng.choice([p for p in all5 if p != planted[k]])
    return domain, images, planted


def almost_hom_text(domain, images) -> str:
    lines = ["group=sym4 degree=5"]
    lines += [f"{_cycles(g)} -> {_cycles(p)}" for g, p in zip(domain, images)]
    return "\n".join(lines) + "\n"


PRIME_MODULI = (7, 11, 13, 17, 19, 23, 29, 31)


def primes_selector(rng: random.Random) -> tuple[list[int], list[int]]:
    qs = sorted(rng.sample(PRIME_MODULI, 2))
    return qs, [rng.randrange(2) for _ in qs]


# -- independent checks of seed-dependent reports ---------------------------------------

def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def check_map_report(domain, images, planted):
    """The defect recomputed from the file, and the nearest homomorphism no
    farther than the planted one."""
    index = {g: i for i, g in enumerate(domain)}
    defect = max(_hamming(images[index[_compose(g, h)]],
                          _compose(images[index[g]], images[index[h]]))
                 for g in domain for h in domain)
    planted_distance = max(_hamming(p, q) for p, q in zip(images, planted))

    def check(report) -> list[str]:
        problems = []
        if Fraction(report["defect"]) != defect:
            problems.append(f"defect {report['defect']} != recomputed {defect}")
        if Fraction(report["nearest"]["distance"]) > planted_distance:
            problems.append(f"nearest distance {report['nearest']['distance']}"
                            f" exceeds the planted hom's {planted_distance}")
        return problems
    return check


def check_primes_report(report) -> list[str]:
    p = report["p"]
    problems = [] if _is_prime(p) else [f"{p} is not prime"]
    for pair, gamma in zip(report["pairs"], report["config"]["gamma"]):
        want = pair["a1"] if gamma else pair["a0"]
        if (p ** 4 - 1) % pair["q"] != want:
            problems.append(f"p**4 - 1 != {want} mod {pair['q']}")
    return problems


def check_clusters_report(report) -> list[str]:
    # every exact automorphism (one per element of Alt(5)) is always found
    if report["automorphisms"] < 60:
        return [f"only {report['automorphisms']} automorphisms, want >= 60"]
    return []


def check_action_centralizer_report(report) -> list[str]:
    if (report["degree"], report["centralizer_order"]) != (8, 8):
        return [f"degree/order {report['degree']}/{report['centralizer_order']},"
                " want 8/8"]
    return []


# -- workloads --------------------------------------------------------------------------

# verify: FO model checking.  Over many small groups, all three fo strategies
# and the commutator-coverage oracle, with groups on its scalar path; over a
# few groups of ~1e5 elements, construction, classes, the numpy centralizer
# path and is_subgroup, where memory peaks.
# actions: the Permutation-object layers (schreier, rigidity, stability,
# perms); groups and fo are nearly idle.
WORKLOADS = ("verify", "actions")


def build_jobs(workload: str, seed: int, work: Path) -> list[Job]:
    """The workload's jobs for this seed; writes their input files into work."""
    if workload == "verify":
        return [
            Job("verify-default", ("verify",), expected="verify-default"),
            Job("verify-centralizer", ("verify", "--strategy", "centralizer"),
                expected="verify-centralizer"),
            Job("verify-felgner-naive",
                ("verify", "--groups", "alt6,sym6,psl2(7)", "--sentences",
                 "felgner", "--strategy", "naive"),
                expected="verify-felgner-naive"),
            Job("verify-phi1",
                ("verify", "--sentences",
                 "felgner.phi1.literal,felgner.phi1.generated"),
                expected="verify-phi1"),
            Job("verify-alt9-congruence",
                ("verify", "--groups", "alt9", "--sentences", "congruence(1,3)"),
                expected="verify-alt9-congruence"),
            Job("verify-sym9-remark",
                ("verify", "--groups", "sym9", "--sentences", "prime_remark",
                 "--strategy", "centralizer"),
                expected="verify-sym9-remark"),
            Job("verify-sym7-remark",
                ("verify", "--groups", "sym7", "--sentences", "prime_remark",
                 "--strategy", "class"),
                expected="verify-sym7-remark"),
        ]
    if workload != "actions":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    graph = work / "alt7.graph"
    graph.write_text(alt7_graph_text(rng), encoding="utf-8")
    a, b = regular_c4xc2_perms(rng)
    domain, images, planted = perturbed_sym4_hom(rng)
    ahom = work / "sym4.ahom"
    ahom.write_text(almost_hom_text(domain, images), encoding="utf-8")
    qs, gammas = primes_selector(rng)
    return [
        Job("schreier-alt7-file-report",
            ("schreier", "--graph", f"file:{graph}", "--mode", "report"),
            expected="schreier-alt7-report", ignore=("config.graph",)),
        Job("schreier-alt5-clusters",
            ("schreier", "--graph", "regular:alt5", "--mode", "clusters"),
            check=check_clusters_report),
        Job("schreier-psl2-7-exact-autos",
            ("schreier", "--graph", "regular:psl2(7)", "--mode", "exact-autos"),
            expected="schreier-psl2-7-exact-autos"),
        Job("rigidity-psl2-7-biregular",
            ("rigidity", "--group", "psl2(7)", "--check", "biregular"),
            expected="rigidity-psl2-7-biregular"),
        Job("rigidity-action-centralizer",
            ("rigidity", "--check", "action-centralizer", "--perms",
             f"{_cycles(a)};{_cycles(b)}"),
            check=check_action_centralizer_report),
        Job("stability-cyclic2-scan",
            ("stability", "--group", "cyclic2", "--degree", "6"),
            expected="stability-cyclic2-scan"),
        Job("stability-sym4-map",
            ("stability", "--map", str(ahom), "--window", "1/5"),
            check=check_map_report(domain, images, planted)),
        Job("primes-selector",
            ("primes", "--q", ",".join(map(str, qs)),
             "--gamma", ",".join(map(str, gammas))),
            check=check_primes_report),
    ]


# reference commands whose reports are frozen in expected/ but that no
# workload runs as such (the workload runs a relabelled copy instead)
REFERENCE_JOBS = [
    Job("schreier-alt7-report",
        ("schreier", "--graph", "regular:alt7", "--mode", "report"),
        expected="schreier-alt7-report"),
]


# -- report comparison ------------------------------------------------------------------

def compare_reports(expected, actual, ignore=(), path="") -> list[str]:
    """Differences between two JSON reports, as 'path: detail' strings.

    The echoed ``seed`` and every dotted key in ``ignore`` are skipped.
    ``spectral_gap`` matches within GAP_TOLERANCE; everything else exactly.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else key
            if sub == "seed" or sub in ignore:
                continue
            if key not in actual:
                out.append(f"{sub}: missing")
            elif key not in expected:
                out.append(f"{sub}: unexpected")
            else:
                out += compare_reports(expected[key], actual[key], ignore, sub)
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare_reports(e, a, ignore, f"{path}[{i}]")
        return out
    if path.rsplit(".", 1)[-1] == "spectral_gap" and \
            isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if abs(expected - actual) <= GAP_TOLERANCE:
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


def embedded_check_failures(report) -> list[str]:
    """Embedded checks that did not pass ('checks' rows with pass false)."""
    return [f"embedded check failed: {c.get('check', c)}"
            for c in report.get("checks", []) if c.get("pass") is False]


def judge(job: Job, report) -> list[str]:
    """Every reason this job's report is wrong; empty when it is correct."""
    problems = embedded_check_failures(report)
    if job.expected is not None:
        frozen = json.loads((EXPECTED_DIR / f"{job.expected}.json")
                            .read_text(encoding="utf-8"))
        problems += compare_reports(frozen, report, job.ignore)
    if job.check is not None:
        problems += job.check(report)
    return problems
