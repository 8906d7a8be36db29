"""Command-line front end: deterministic JSON reports over the lab modules.

Subcommands: verify, primes, schreier, rigidity, stability, corpus.  A JSON
config file can preload any flag (explicit flags win).  Reports are JSON
with sorted keys; exact rationals appear as "p/q" strings (integers plain),
so identical (config, seed) pairs produce byte-identical output.  Wall
times are opt-in via --timings precisely because they would break that
reproducibility.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage
or config error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .arithmetic import SelectorProblem, find_witness_prime, residue_pair
from .errors import CapExceededError, ParseError
from .groups import (SYM_SCAN_CAP, FiniteGroup, construct_group, default_corpus,
                     parse_group_spec)
from .perms import cycle_string, padded_rows, parse_permutation
from .rigidity import (_perm_action, action_centralizer,
                       biregular_double_centralizer,
                       centralizer_in_sym_bruteforce, class_power_types)
from .schreier import (EXPANSION_CAP, automorphism_rows,
                       cluster_scan, component_mass_profile, components,
                       default_cluster_epsilon, directed_cycle_graph,
                       edge_expansion, enumerate_eps_automorphisms,
                       histogram_csv, pairwise_distances, read_graph_file,
                       regular_action_graph, spectral_gap, symmetrized_degree)
from .sentences import (classify_nonabelian_simple, congruence_oracle_alt,
                        congruence_sentence, felgner_report,
                        prime_remark_oracle, prime_remark_sentence,
                        sentence_report)
from .stability import (STABILITY_BOUND, identity_preserving_scan, nearest_hom,
                        read_almost_hom_file, uniform_defect_report)

DEFAULT_SENTENCES = ["felgner", "congruence(1,3)", "prime_remark"]
_CONGRUENCE_ID = re.compile(r"^congruence\((\d+),\s*(\d+)\)$")


def _jsonable(obj):
    """The report as JSON values: exact rationals as "p/q" strings (integral
    ones as plain ints); permutations arrive as cycle strings."""
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        return round(obj, 12)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_output(args, report: dict) -> None:
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_plot_data(args, rows: list[str]) -> None:
    if args.plot_data:
        with open(args.plot_data, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")


def _split_outside_parens(text: str) -> list[str]:
    """Split on commas not nested in parentheses: congruence(1,3) stays whole."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _resolve_groups(spec_text: str) -> list[FiniteGroup]:
    if spec_text.strip() == "corpus":
        return [construct_group(s) for s in default_corpus()]
    return [construct_group(parse_group_spec(part.strip()))
            for part in spec_text.split(",") if part.strip()]


# -- verify ---------------------------------------------------------------------------

def _report_row(r, oracle_backed: bool) -> dict:
    row = {"group": r.group, "sentence": r.sentence, "strategy": r.strategy,
           "value": r.value, "oracle": r.oracle,
           "witness": dict(r.witness) if r.witness else None}
    row["pass"] = (r.value == r.oracle) if oracle_backed else None
    return row


def cmd_verify(args) -> dict:
    groups = _resolve_groups(args.groups)
    ids = _split_outside_parens(args.sentences)
    strategy = args.strategy
    rows = []
    for G in groups:
        for sid in ids:
            m = _CONGRUENCE_ID.match(sid)
            if sid == "felgner":
                rows.append(_report_row(felgner_report(G, "felgner.phi2", strategy),
                                        oracle_backed=True))
                rows.append({"group": G.name, "sentence": "felgner.verdict",
                             "strategy": "bruteforce",
                             "value": classify_nonabelian_simple(G),
                             "oracle": None, "witness": None, "pass": None})
            elif sid in ("felgner.phi1.literal", "felgner.phi1.generated"):
                rows.append(_report_row(felgner_report(G, sid, strategy),
                                        oracle_backed=False))
            elif m:
                l, q = int(m.group(1)), int(m.group(2))
                spec = getattr(G, "spec", None)
                oracle = (congruence_oracle_alt(spec.n, l, q)
                          if spec is not None and spec.kind == "alt" else None)
                rows.append(_report_row(
                    sentence_report(G, sid, congruence_sentence(l, q), strategy,
                                    oracle=oracle),
                    oracle_backed=oracle is not None))
            elif sid == "prime_remark":
                spec = getattr(G, "spec", None)
                oracle = (prime_remark_oracle(spec.n)
                          if spec is not None and spec.kind == "sym" else None)
                rows.append(_report_row(
                    sentence_report(G, sid, prime_remark_sentence(), strategy,
                                    oracle=oracle),
                    oracle_backed=oracle is not None))
            else:
                raise ValueError(f"unknown sentence id {sid!r}")
    asserted = [r for r in rows if r["pass"] is not None]
    return {
        "command": "verify",
        "config": {"groups": args.groups, "sentences": ids, "strategy": strategy},
        "checks": rows,
        "summary": {"rows": len(rows), "asserted": len(asserted),
                    "failed": sum(not r["pass"] for r in asserted)},
    }


# -- primes ---------------------------------------------------------------------------

def cmd_primes(args) -> dict:
    qs = [int(x) for x in args.q.split(",") if x.strip()]
    gammas = [int(x) for x in args.gamma.split(",") if x.strip()]
    if len(qs) != len(gammas):
        raise ValueError("--q and --gamma need the same length")
    problem = SelectorProblem(qs=tuple(qs), gamma=tuple(gammas))
    pairs = {q: residue_pair(q) for q in problem.qs}
    p = find_witness_prime(problem, floor=args.floor)
    checks = [{"check": f"p >= {args.floor}", "pass": p >= args.floor}]
    for q, g in problem.items():
        want = pairs[q].a(g)
        got = (pow(p, 4, q) - 1) % q
        checks.append({"check": f"p**4 - 1 = {want} mod {q}",
                       "pass": got == want})
    return {
        "command": "primes",
        "config": {"q": qs, "gamma": gammas, "floor": args.floor},
        "p": p,
        "pairs": [{"q": rp.q, "a0": rp.a0, "a1": rp.a1, "b0": rp.b0,
                   "b1": rp.b1, "c": rp.c, "d": rp.d}
                  for rp in (pairs[q] for q in problem.qs)],
        "checks": checks,
    }


# -- schreier -------------------------------------------------------------------------

def _resolve_graph(text: str):
    """regular:<group spec>, cycle:<n>, or file:<path>; returns (graph, group)."""
    kind, _, rest = text.partition(":")
    if kind == "regular" and rest:
        G = construct_group(parse_group_spec(rest))
        return regular_action_graph(G), G
    if kind == "cycle" and rest:
        return directed_cycle_graph(int(rest)), None
    if kind == "file" and rest:
        return read_graph_file(rest), None
    raise ValueError(f"graph must be regular:<group>, cycle:<n> or file:<path>,"
                     f" got {text!r}")


def cmd_schreier(args) -> dict:
    graph, G = _resolve_graph(args.graph)
    config = {"graph": args.graph, "mode": args.mode}
    if args.mode == "exact-autos":
        rows = automorphism_rows(graph)  # distances refuse a large list first
        dists = [d for d, _ in pairwise_distances(rows)[0]]
        pairwise = None if not dists else dists[0] if len(dists) == 1 else dists
        checks = [{"check": "pairwise distances all equal 1",
                   "pass": not dists or dists == [Fraction(1)]}]
        if G is not None:
            checks.append({"check": "count equals group order",
                           "pass": len(rows) == len(G)})
        return {"command": "schreier", "config": config,
                "count": len(rows), "pairwise_distance": pairwise,
                "automorphisms": [cycle_string(r) for r in rows.tolist()],
                "checks": checks}
    if args.mode == "report":
        gap = spectral_gap(graph)
        connected = len(components(graph)) == 1
        expansion = edge_expansion(graph) if graph.n <= EXPANSION_CAP else None
        checks = [{"check": "positive gap iff connected",
                   "pass": (gap > 1e-9) == connected}]
        if expansion is not None:
            checks.append({"check": "positive expansion iff positive gap",
                           "pass": (expansion > 0) == (gap > 1e-9)})
        return {"command": "schreier", "config": config,
                "n": graph.n, "labels": list(graph.labels),
                "symmetrized_degree": symmetrized_degree(graph),
                "mass_profile": component_mass_profile(graph),
                "spectral_gap": gap, "edge_expansion": expansion,
                "connected": connected, "checks": checks}
    if args.mode == "clusters":
        eps = default_cluster_epsilon(graph) if args.eps == "auto" else args.eps
        search = args.search
        if search == "auto":
            search = "backtracking" if eps == 0 else (
                "exhaustive" if graph.n <= SYM_SCAN_CAP else "local-search")
        autos = enumerate_eps_automorphisms(graph, eps, mode=search,
                                            restarts=args.restarts,
                                            seed=args.seed)
        config.update({"eps": eps, "search": search})
        if len(autos) < 2:
            return {"command": "schreier", "config": config,
                    "automorphisms": len(autos), "clusters": None, "checks": []}
        scan = cluster_scan(autos, graph, epsilon=eps)
        pair_total = len(autos) * (len(autos) - 1) // 2
        checks = [
            {"check": "histogram covers every pair",
             "pass": sum(c for _, c in scan.histogram) == pair_total},
            {"check": "clusters partition the automorphisms",
             "pass": sorted(i for c in scan.clusters for i in c)
             == list(range(len(autos)))},
        ]
        report = {
            "command": "schreier", "config": config,
            "automorphisms": len(autos),
            "clusters": [len(c) for c in scan.clusters],
            "gap_interval": scan.gap_interval,
            "histogram": [[d.numerator, d.denominator, c]
                          for d, c in scan.histogram],
            "product_defects": {f"{i},{j}": d for (i, j), d in scan.product_defects},
            "checks": checks,
        }
        _write_plot_data(args, histogram_csv(scan).splitlines())
        return report
    raise ValueError(f"unknown schreier mode {args.mode!r}")


# -- rigidity -------------------------------------------------------------------------

def cmd_rigidity(args) -> dict:
    if args.check == "biregular":
        G = construct_group(parse_group_spec(args.group))
        rep = biregular_double_centralizer(G)
        checks = [
            {"check": "centralizer of the left copy is the right copy",
             "pass": rep.centralizer_is_right_copy},
            {"check": "double centralizer closes onto the left copy",
             "pass": rep.double_is_left_copy},
            {"check": "flip conjugates the centralizer onto the left copy",
             "pass": rep.flip_conjugates_centralizer_to_left},
            {"check": "flip swaps left and right generators",
             "pass": rep.generator_identities},
        ]
        return {
            "command": "rigidity",
            "config": {"group": args.group, "check": "biregular"},
            "centralizer_order": rep.centralizer_order,
            "double_centralizer": "closes" if rep.double_is_left_copy else "differs",
            "flip_swap": rep.flip_conjugates_centralizer_to_left
            and rep.generator_identities,
            "checks": checks,
        }
    if args.check == "action-centralizer":
        if not args.perms:
            raise ValueError("action-centralizer needs --perms")
        rows = padded_rows(t.strip() for t in args.perms.split(";"))
        top = len(rows[0])
        C = action_centralizer(_perm_action(rows))
        elements = C.matrix.tolist()
        checks = []
        if top <= SYM_SCAN_CAP:
            brute = centralizer_in_sym_bruteforce(rows)
            checks.append({"check": "matches the brute-force centralizer",
                           "pass": set(map(tuple, elements)) == {p.images for p in brute}})
        return {
            "command": "rigidity",
            "config": {"perms": args.perms, "check": "action-centralizer"},
            "degree": top, "centralizer_order": len(C),
            "elements": [cycle_string(r) for r in elements],
            "checks": checks,
        }
    if args.check == "class-powers":
        if not args.element:
            raise ValueError("class-powers needs --element")
        G = construct_group(parse_group_spec(args.group))
        g = parse_permutation(args.element, degree=G.degree)
        types = class_power_types(G, g, args.k)
        return {
            "command": "rigidity",
            "config": {"group": args.group, "element": args.element, "k": args.k},
            "types": sorted(str(t) for t in types),
            "checks": [],
        }
    raise ValueError(f"unknown rigidity check {args.check!r}")


# -- stability ------------------------------------------------------------------------

def cmd_stability(args) -> dict:
    if args.map:
        s = read_almost_hom_file(args.map)
        near = nearest_hom(s, window=args.window)  # caps refused before the |G|^2 defect
        rep = uniform_defect_report(s)
        checks = [{"check": f"distance within {STABILITY_BOUND} * defect",
                   "pass": near.within_bound}]
        return {
            "command": "stability",
            "config": {"map": args.map, "window": args.window},
            "defect": rep.defect, "argmax": rep.argmax,
            "injectivity": rep.injectivity,
            "nearest": {"degree": near.degree, "distance": near.distance,
                        "ratio": near.ratio,
                        "hom": [cycle_string(r) for r in near.hom.array.tolist()]},
            "checks": checks,
        }
    G = construct_group(parse_group_spec(args.group))
    scan = identity_preserving_scan(G, args.degree, window=args.window)
    checks = [{"check": f"all distances within {STABILITY_BOUND} * defect",
               "pass": scan.all_within_bound}]
    report = {
        "command": "stability",
        "config": {"group": args.group, "degree": args.degree,
                   "window": args.window},
        "rows": len(scan.rows), "max_ratio": scan.max_ratio,
        "bound": STABILITY_BOUND,
        "checks": checks,
    }
    _write_plot_data(args, ["images,defect_num,defect_den,dist_num,dist_den"] + [
        f"\"{'|'.join(r.images)}\",{r.defect.numerator},{r.defect.denominator},"
        f"{r.distance.numerator},{r.distance.denominator}" for r in scan.rows])
    return report


# -- corpus ---------------------------------------------------------------------------

def cmd_corpus(args) -> dict:
    if args.action != "list":
        raise ValueError(f"unknown corpus action {args.action!r}")
    rows = []
    for spec in default_corpus():
        G = construct_group(spec)
        rows.append({"name": G.name, "order": len(G), "degree": G.degree})
    return {"command": "corpus", "config": {"action": "list"},
            "groups": rows, "checks": []}


# -- plumbing -------------------------------------------------------------------------

def _nonnegative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def _nonnegative_fraction(text: str) -> Fraction:
    try:
        if (value := Fraction(text)) >= 0:
            return value
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"must be a fraction >= 0, got {text}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permlab",
        description="Deterministic verification runs over the finite lab modules.")
    parser.add_argument("--version", action="version",
                        version=f"permlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file preloading any flag")
        p.add_argument("--seed", type=int, default=0,
                       help="random seed recorded in the report")
        p.add_argument("--timings", action="store_true",
                       help="include wall times (breaks byte-identical output)")
        p.add_argument("-o", "--output", help="write the JSON report here")
        p.add_argument("--plot-data", help="write plottable CSV here")

    p = sub.add_parser("verify", help="sentence evaluations against oracles")
    p.add_argument("--groups", default="corpus",
                   help="comma-separated group specs, or 'corpus'")
    p.add_argument("--sentences", default=",".join(DEFAULT_SENTENCES))
    p.add_argument("--strategy", default="class",
                   choices=["naive", "class", "centralizer"])
    common(p)

    p = sub.add_parser("primes", help="selector-problem witness primes")
    p.add_argument("--q", required=True, help="comma-separated primes >= 7")
    p.add_argument("--gamma", required=True, help="comma-separated 0/1 choices")
    p.add_argument("--floor", type=int, default=13)
    common(p)

    p = sub.add_parser("schreier", help="graph expansion and automorphisms")
    p.add_argument("--graph", required=True,
                   help="regular:<group>, cycle:<n>, or file:<path>")
    p.add_argument("--mode", default="report",
                   choices=["exact-autos", "report", "clusters"])
    p.add_argument("--eps", default="auto",
                   type=lambda t: t if t == "auto" else _nonnegative_fraction(t),
                   help="defect budget as a fraction, or 'auto'")
    p.add_argument("--search", default="auto",
                   choices=["auto", "exhaustive", "backtracking", "local-search"])
    p.add_argument("--restarts", type=_nonnegative_int, default=20)
    common(p)

    p = sub.add_parser("rigidity", help="centralizer and double-centralizer checks")
    p.add_argument("--group", default="sym3")
    p.add_argument("--check", default="biregular",
                   choices=["biregular", "action-centralizer", "class-powers"])
    p.add_argument("--perms", default="",
                   help="semicolon-separated cycle strings (action-centralizer)")
    p.add_argument("--element", default="", help="cycle string (class-powers)")
    p.add_argument("--k", type=int, default=2)
    common(p)

    p = sub.add_parser("stability", help="almost-homomorphism scans and files")
    p.add_argument("--group", default="cyclic2")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--window", type=_nonnegative_fraction, default="0",
                   help="padding window fraction")
    p.add_argument("--map", default="",
                   help="almost-homomorphism file to analyze")
    common(p)

    p = sub.add_parser("corpus", help="corpus inspection")
    p.add_argument("action", nargs="?", default="list")
    common(p)
    return parser


DISPATCH = {
    "verify": cmd_verify,
    "primes": cmd_primes,
    "schreier": cmd_schreier,
    "rigidity": cmd_rigidity,
    "stability": cmd_stability,
    "corpus": cmd_corpus,
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config file stands for flags placed right after the
    subcommand, so they get the flags' own validation and explicit flags,
    coming later, win."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config {args.config}: {exc}")
    if not isinstance(loaded, dict):
        parser.error("the config file must hold a JSON object")
    flags = []
    for key, value in loaded.items():
        if key.replace("-", "_") not in vars(args):
            parser.error(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            flags += [flag] if value else []
        elif isinstance(value, (str, int, float)):
            flags.append(f"{flag}={value}")
        else:
            parser.error(f"config key {key!r} needs a string, number or boolean")
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + flags + argv[at:])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        report = DISPATCH[args.command](args)
    except (ValueError, KeyError, OSError, ParseError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["tool"] = f"permlab {__version__}"
    report["seed"] = args.seed
    if args.timings:
        report["wall_time_s"] = round(time.perf_counter() - t0, 3)
    _write_output(args, report)
    return 1 if any(c["pass"] is False for c in report["checks"]) else 0


if __name__ == "__main__":
    sys.exit(main())
