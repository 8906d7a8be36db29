"""End-to-end tests for the command-line front end.

Everything runs in-process through main(argv); reports land in tmp_path
via -o so the JSON can be loaded back and inspected.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from permlab import groups
from permlab.cli import main
from permlab.groups import construct_group, default_corpus
from permlab.perms import parse_permutation
from permlab.schreier import CELL_CAP, GAP_CAP, regular_action_graph, write_graph_file
from permlab.stability import almost_hom, write_almost_hom_file


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "-o", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


# -- documented example invocations ---------------------------------------------------

def test_primes_example(tmp_path):
    code, rep = run(tmp_path, "primes", "--q", "7,11", "--gamma", "1,1")
    assert code == 0
    assert rep["p"] == 37
    assert all(c["pass"] for c in rep["checks"])
    assert rep["config"] == {"floor": 13, "gamma": [1, 1], "q": [7, 11]}


def test_primes_witness_past_the_primality_bound_exits_two(tmp_path, capsys):
    # the 22 primes 7..97 have a witness near 4e34, past what is_prime decides
    qs = [q for q in range(7, 100) if all(q % d for d in range(2, q))]
    assert len(qs) == 22
    out = tmp_path / "report.json"
    code = main(["primes", "--q", ",".join(map(str, qs)), "--gamma",
                 ",".join("1" * len(qs)), "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert "primality is decided only below" in err and "Traceback" not in err


def test_rigidity_biregular_example(tmp_path):
    code, rep = run(tmp_path, "rigidity", "--group", "sym3",
                    "--check", "biregular")
    assert code == 0
    assert rep["centralizer_order"] == 6
    assert rep["double_centralizer"] == "closes"
    assert rep["flip_swap"] is True


def test_rigidity_biregular_alt6_within_budget(tmp_path):
    # the second centralizer is taken of a generating subset of the first
    t0 = time.perf_counter()
    code, rep = run(tmp_path, "rigidity", "--group", "alt6",
                    "--check", "biregular")
    assert time.perf_counter() - t0 < 10
    assert code == 0
    assert rep["centralizer_order"] == 360
    assert rep["double_centralizer"] == "closes"


def test_rigidity_biregular_alt7_within_budget(tmp_path):
    t0 = time.perf_counter()
    code, rep = run(tmp_path, "rigidity", "--group", "alt7",
                    "--check", "biregular")
    assert time.perf_counter() - t0 < 10
    assert code == 0
    assert rep["centralizer_order"] == 2520
    assert rep["double_centralizer"] == "closes"


def test_rigidity_biregular_sym8_refused_at_once(tmp_path, capsys):
    t0 = time.perf_counter()
    assert main(["rigidity", "--group", "sym8", "--check", "biregular"]) == 2
    assert time.perf_counter() - t0 < 2
    assert f"capped at {CELL_CAP} cells" in capsys.readouterr().err


def test_schreier_exact_autos_example(tmp_path):
    code, rep = run(tmp_path, "schreier", "--graph", "regular:alt4",
                    "--mode", "exact-autos")
    assert code == 0
    assert rep["count"] == 12
    assert rep["pairwise_distance"] == 1
    assert len(rep["automorphisms"]) == 12


# -- verify ---------------------------------------------------------------------------

def test_verify_small_groups(tmp_path):
    code, rep = run(tmp_path, "verify", "--groups", "cyclic6,sym4")
    assert code == 0
    rows = {(r["group"], r["sentence"]): r for r in rep["checks"]}
    # Default sentences: felgner (phi2 + verdict), congruence(1,3), prime_remark.
    assert len(rows) == 8
    assert rows[("sym(4)", "felgner.phi2")]["pass"] is True
    assert rows[("sym(4)", "felgner.verdict")]["value"] is False
    assert rows[("sym(4)", "prime_remark")]["oracle"] is True
    assert rows[("cyclic(6)", "prime_remark")]["oracle"] is None
    assert rep["summary"] == {"rows": 8, "asserted": 3, "failed": 0}


def test_plain_verify_closes_rows_only_to_build_groups_and_alt_subgroups(tmp_path, monkeypatch):
    # fresh groups; subgroups of a group that holds its Cayley table close by it
    monkeypatch.setattr(groups, "_CONSTRUCT_CACHE", {})
    callers, closure = Counter(), groups._closure
    monkeypatch.setattr(groups, "_closure", lambda *args: callers.update(
        [sys._getframe(1).f_code.co_name]) or closure(*args))
    assert run(tmp_path, "verify")[0] == 0
    assert callers == {"_generated_group": 17, "iter_alt_subgroups": 9}


def test_verify_congruence_id_with_comma(tmp_path):
    code, rep = run(tmp_path, "verify", "--groups", "alt5",
                    "--sentences", "congruence(2,3)")
    assert code == 0
    (row,) = rep["checks"]
    assert row["sentence"] == "congruence(2,3)"
    assert row["value"] is False and row["oracle"] is False


def test_verify_congruence_with_large_q(tmp_path):
    # the power g^q is a balanced product, so q = 1009 stays shallow
    code, rep = run(tmp_path, "verify", "--groups", "alt5",
                    "--sentences", "congruence(1,1009)")
    assert code == 0
    assert [c["pass"] for c in rep["checks"]] == [True]


def test_verify_phi1_readings_report_only(tmp_path):
    code, rep = run(tmp_path, "verify", "--groups", "sym3",
                    "--sentences", "felgner.phi1.literal,felgner.phi1.generated")
    assert code == 0
    assert [r["pass"] for r in rep["checks"]] == [None, None]


def test_verify_unknown_sentence_is_usage_error(tmp_path):
    assert main(["verify", "--groups", "cyclic2",
                 "--sentences", "nonsense", "-o",
                 str(tmp_path / "r.json")]) == 2


# -- exit codes and config merging ----------------------------------------------------

def test_bad_group_spec_is_usage_error(tmp_path):
    assert main(["verify", "--groups", "nope99",
                 "-o", str(tmp_path / "r.json")]) == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("permlab ")


def test_config_file_merges_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"groups": "cyclic4", "seed": 7}),
                   encoding="utf-8")
    code, rep = run(tmp_path, "verify", "--config", str(cfg),
                    "--sentences", "felgner")
    assert code == 0
    assert rep["config"]["groups"] == "cyclic4"
    assert rep["seed"] == 7
    code, rep = run(tmp_path, "verify", "--config", str(cfg),
                    "--sentences", "felgner", "--groups", "cyclic2")
    assert code == 0
    assert rep["config"]["groups"] == "cyclic2"
    assert rep["seed"] == 7


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}), encoding="utf-8")
    assert main(["verify", "--config", str(cfg),
                 "-o", str(tmp_path / "r.json")]) == 2


@pytest.mark.parametrize("config", [{"groups": 5}, {"strategy": "bogus"}])
def test_bad_config_value_is_usage_error(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert main(["verify", "--config", str(cfg),
                 "-o", str(tmp_path / "r.json")]) == 2
    capsys.readouterr()


def test_negative_restarts_is_usage_error(tmp_path, capsys):
    assert main(["schreier", "--graph", "cycle:4", "--mode", "clusters",
                 "--restarts", "-3", "-o", str(tmp_path / "r.json")]) == 2
    assert "--restarts" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"restarts": -1}), encoding="utf-8")
    assert main(["schreier", "--graph", "cycle:4", "--config", str(cfg),
                 "-o", str(tmp_path / "r.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("schreier", "--graph", "cycle:4", "--mode", "clusters", "--eps"),
    ("stability", "--window"),
], ids=["eps", "window"])
@pytest.mark.parametrize("value", ["1/0", "-1/2", "half"])
def test_bad_fraction_is_usage_error(tmp_path, capsys, argv, value):
    out = str(tmp_path / "r.json")
    assert main([*argv, value, "-o", out]) == 2
    assert argv[-1] in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({argv[-1][2:]: value}), encoding="utf-8")
    assert main([*argv[:-1], "--config", str(cfg), "-o", out]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("--graph", f"cycle:{GAP_CAP + 1}", "--mode", "report"),
    ("--graph", "regular:sym8", "--mode", "clusters"),
    ("--graph", "regular:sym8", "--mode", "exact-autos"),
    ("--graph", "regular:sym8", "--mode", "clusters", "--eps", "0"),
], ids=["report", "clusters", "exact-autos", "clusters-eps-0"])
def test_dense_spectral_gap_cap_exits_two(tmp_path, capsys, argv):
    # report: one vertex past GAP_CAP is refused before Lanczos holds a basis;
    # clusters: regular:sym8 (40,320 vertices) gets its gap, but the local
    # search's n×n swap-gain table is past CELL_CAP; exact-autos and eps 0:
    # its 40,320 root targets × 40,320 points would be a 6.5 GB int32 table,
    # refused before it is allocated
    t0 = time.perf_counter()
    assert main(["schreier", *argv, "-o", str(tmp_path / "r.json")]) == 2
    assert time.perf_counter() - t0 < 10
    assert "capped" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_sym8_report_gets_its_gap_from_lanczos(tmp_path):
    t0 = time.perf_counter()
    code, rep = run(tmp_path, "schreier", "--graph", "regular:sym8", "--mode", "report")
    assert time.perf_counter() - t0 < 30
    assert code == 0
    assert rep["n"] == 40320 and rep["connected"]
    assert 1e-9 < rep["spectral_gap"] < 1


def test_failed_check_exits_one(tmp_path):
    graph = tmp_path / "trivial.graph"
    graph.write_text("n=3 labels=s\n1 s 1\n2 s 2\n3 s 3\n", encoding="utf-8")
    # All of Sym(3) fixes the identity generator, so transpositions sit at
    # Hamming distance 2/3 and the distance-1 check fails.
    code, rep = run(tmp_path, "schreier", "--graph", f"file:{graph}",
                    "--mode", "exact-autos")
    assert code == 1
    assert rep["count"] == 6
    assert rep["pairwise_distance"] == ["2/3", 1]


def test_exact_autos_of_a_large_identity_graph_exits_two(tmp_path, capsys):
    # nine fixed points: the 9! automorphism rows are only 3.3 M cells, but
    # their pairwise distances compare 5.9e11 cells, past PAIR_CAP
    graph = tmp_path / "identity9.graph"
    graph.write_text("n=9 labels=s\n" + "".join(f"{i} s {i}\n" for i in range(1, 10)),
                     encoding="utf-8")
    t0 = time.perf_counter()
    assert main(["schreier", "--graph", f"file:{graph}", "--mode", "exact-autos",
                 "-o", str(tmp_path / "r.json")]) == 2
    assert time.perf_counter() - t0 < 5
    assert "capped" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["rigidity", "--check", "action-centralizer", "--perms", "(99 100)"],
    ["schreier", "--mode", "exact-autos", "--graph"],
])
def test_automorphisms_of_many_fixed_points_exit_two_at_once(tmp_path, capsys, argv):
    # 98 or 100 one-point components: refused by the fourth component, before
    # ~10^6 partial maps of up to 100 points or their hit table are built
    if argv[0] == "schreier":
        graph = tmp_path / "identity100.graph"
        graph.write_text("n=100 labels=s\n" + "".join(f"{i} s {i}\n" for i in range(1, 101)),
                         encoding="utf-8")
        argv = [*argv, f"file:{graph}"]
    t0 = time.perf_counter()
    assert main([*argv, "-o", str(tmp_path / "r.json")]) == 2
    assert time.perf_counter() - t0 < 5
    assert "capped" in capsys.readouterr().err


def test_exact_autos_of_regular_sym7_exits_two_before_its_distances(tmp_path, capsys):
    # the 5,040 automorphism rows fit CELL_CAP exactly; their 6.4e10
    # compared cells do not fit PAIR_CAP, refused before any Permutation
    t0 = time.perf_counter()
    assert main(["schreier", "--graph", "regular:sym7", "--mode", "exact-autos",
                 "-o", str(tmp_path / "r.json")]) == 2
    assert time.perf_counter() - t0 < 10
    assert "capped" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_stability_map_over_the_group_cap_exits_two_at_once(tmp_path, capsys):
    # a Sym(6) map: 720 elements, refused before the 518,400-pair defect
    G = construct_group("sym6")
    path = tmp_path / "sym6.ahom"
    write_almost_hom_file(almost_hom(G, {g: g for g in G.elements()}), path)
    t0 = time.perf_counter()
    assert main(["stability", "--map", str(path), "-o", str(tmp_path / "r.json")]) == 2
    assert time.perf_counter() - t0 < 2
    assert "capped at |G| <= 24" in capsys.readouterr().err


def test_stability_below_degree_one_is_usage_error(tmp_path, capsys):
    assert main(["stability", "--group", "cyclic2", "--degree", "-1",
                 "-o", str(tmp_path / "r.json")]) == 2
    assert "degree must be at least 1" in capsys.readouterr().err


def test_stability_scan_of_sym4_at_degree_six_exits_two(tmp_path, capsys):
    # 720^23 identity-preserving maps: refused by the scan cap, not searched
    t0 = time.perf_counter()
    assert main(["stability", "--group", "sym4", "--degree", "6",
                 "-o", str(tmp_path / "r.json")]) == 2
    assert time.perf_counter() - t0 < 2
    assert "maps exceeds the cap 10000" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


_BRUTE = [{"check": "matches the brute-force centralizer", "pass": True}]


@pytest.mark.parametrize("argv, code, fields", [
    (("schreier", "--graph", "regular:sym4", "--mode", "report"), 0,
     {"n": 24, "edge_expansion": "1/6"}),
    (("schreier", "--graph", "cycle:24", "--mode", "report"), 0,
     {"n": 24, "edge_expansion": "1/12"}),
    (("schreier", "--graph", "cycle:9", "--mode", "clusters", "--search", "exhaustive"),
     2, None),
    (("rigidity", "--check", "action-centralizer", "--perms", "(1 2 3);(4 5 6 7 8)"), 0,
     {"degree": 8, "centralizer_order": 15, "checks": _BRUTE}),
    (("rigidity", "--check", "action-centralizer", "--perms", "(1 2 3);(4 5 6 7 8 9)"), 0,
     {"degree": 9, "centralizer_order": 18, "checks": []}),
    (("verify", "--groups", "sym8", "--sentences", "prime_remark", "--strategy", "class"),
     0, {"summary": {"asserted": 1, "failed": 0, "rows": 1}}),
    (("verify", "--groups", "sym9", "--sentences", "prime_remark", "--strategy",
      "centralizer"), 0, {"summary": {"asserted": 1, "failed": 0, "rows": 1}}),
    (("verify", "--groups", "alt9", "--sentences", "congruence(1,3)"), 0,
     {"summary": {"asserted": 1, "failed": 0, "rows": 1}}),
], ids=["report-regular-sym4", "report-cycle-24", "clusters-exhaustive-cycle-9",
        "action-centralizer-degree-8", "action-centralizer-degree-9",
        "verify-class-sym8", "verify-centralizer-sym9", "verify-congruence-alt9"])
def test_brute_force_scans_finish_within_budget(tmp_path, capsys, argv, code, fields):
    # every subset of 24 points, all of Sym(8), or a loud refusal of Sym(9);
    # the brute-force centralizer row appears up to groups.SYM_SCAN_CAP only;
    # the class strategy's orbit representatives on all of Sym(8); the class
    # scans of Sym(9) and Alt(9)
    out = tmp_path / "r.json"
    t0 = time.perf_counter()
    assert main([*argv, "-o", str(out)]) == code
    assert time.perf_counter() - t0 < 10
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert "capped at degree 8" in err and not out.exists()
    else:
        rep = json.loads(out.read_text(encoding="utf-8"))
        assert {k: rep[k] for k in fields} == fields


# -- determinism and side outputs -----------------------------------------------------

def test_reports_are_byte_identical_across_runs(tmp_path):
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["verify", "--groups", "sym4,alt5", "--seed", "3",
                     "-o", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


# sha256 of the clusters report: byte drift in the maps, clusters, histogram
# or probes shows here, which the bench's ">= 60 automorphisms" check misses
CLUSTERS_REPORT_SHA256 = {
    ("alt5", 0): "66017db03195f90825e48fc101d8531ff8b8e5e20271799f805b51790c5afc38",
    ("alt5", 3): "e913bb3bf2c90e9a646110c6985912db99c73b05929a16788c002bffb9e7b331",
    ("alt5", 11): "80160fcf69f432ab3a7097321d2e8aa79ee445cff553f0754dd4b86375f7c58c",
    ("alt6", 0): "411e64d3ab083f376eb7bbfc7e8f0833817326d21b4aa58f760a0510fb24ac17",
}


@pytest.mark.parametrize("group,seed", sorted(CLUSTERS_REPORT_SHA256))
def test_clusters_report_matches_recorded_digest(tmp_path, group, seed):
    out = tmp_path / "r.json"
    assert main(["schreier", "--graph", f"regular:{group}", "--mode", "clusters",
                 "--seed", str(seed), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        CLUSTERS_REPORT_SHA256[group, seed]


def test_timings_flag_adds_wall_time(tmp_path):
    code, rep = run(tmp_path, "verify", "--groups", "cyclic2", "--timings")
    assert code == 0
    assert isinstance(rep["wall_time_s"], float)
    code, rep = run(tmp_path, "verify", "--groups", "cyclic2")
    assert "wall_time_s" not in rep


def test_stability_plot_data_csv(tmp_path):
    csv = tmp_path / "scan.csv"
    code, rep = run(tmp_path, "stability", "--group", "cyclic2",
                    "--degree", "3", "--plot-data", str(csv))
    assert code == 0
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "images,defect_num,defect_den,dist_num,dist_den"
    assert len(lines) == rep["rows"] + 1


def test_clusters_plot_data_csv(tmp_path):
    csv = tmp_path / "hist.csv"
    code, rep = run(tmp_path, "schreier", "--graph", "cycle:4",
                    "--mode", "clusters", "--eps", "3/4",
                    "--plot-data", str(csv))
    assert code == 0
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "numerator,denominator,count"
    assert sum(int(line.split(",")[2]) for line in lines[1:]) \
        == rep["automorphisms"] * (rep["automorphisms"] - 1) // 2


# -- remaining subcommand surfaces ----------------------------------------------------

def test_schreier_report_fields(tmp_path):
    code, rep = run(tmp_path, "schreier", "--graph", "regular:cyclic6")
    assert code == 0
    assert rep["n"] == 6
    assert rep["spectral_gap"] == pytest.approx(0.5)
    assert rep["edge_expansion"] == "1/3"
    assert rep["connected"] is True
    assert rep["mass_profile"] == [1]


def test_stability_map_file(tmp_path):
    G = construct_group("cyclic3")
    g = G.generator_permutations()[0]
    flip = parse_permutation("(1 2)", degree=3)
    s = almost_hom(G, {g: flip, g * g: flip})
    path = tmp_path / "c3.ahom"
    write_almost_hom_file(s, path)
    code, rep = run(tmp_path, "stability", "--map", str(path))
    assert code == 0
    assert rep["defect"] == "2/3"
    assert rep["nearest"]["distance"] == "2/3"
    assert rep["nearest"]["hom"] == ["()", "()", "()"]


def test_action_centralizer_subcommand(tmp_path):
    code, rep = run(tmp_path, "rigidity", "--check", "action-centralizer",
                    "--perms", "(1 2 3 4)")
    assert code == 0
    assert rep["centralizer_order"] == 4
    assert all(c["pass"] for c in rep["checks"])


def test_action_centralizer_subcommand_on_isomorphic_orbits(tmp_path):
    # two label-isomorphic orbits: the swaps between them are in the centralizer
    code, rep = run(tmp_path, "rigidity", "--check", "action-centralizer",
                    "--perms", "(1 2)(3 4)")
    assert code == 0
    assert rep["centralizer_order"] == 8
    assert rep["checks"] and all(c["pass"] for c in rep["checks"])


def test_class_powers_subcommand(tmp_path):
    code, rep = run(tmp_path, "rigidity", "--group", "sym4",
                    "--check", "class-powers", "--element", "(1 2)", "--k", "2")
    assert code == 0
    assert rep["types"] == ["1^4", "2^2", "3^1 1^1"]


def test_corpus_list(tmp_path):
    code, rep = run(tmp_path, "corpus")
    assert code == 0
    names = [g["name"] for g in rep["groups"]]
    assert names == [s.canonical_name() for s in default_corpus()]
    assert {"alt(5)", "sym(3)", "dihedral(8)", "cyclic(2)", "psl2(7)"} \
        <= set(names)
    assert all(g["order"] > 0 for g in rep["groups"])


def test_corpus_unknown_action(tmp_path):
    assert main(["corpus", "bogus", "-o", str(tmp_path / "r.json")]) == 2


# -- imports ---------------------------------------------------------------------------

_IMPORT_GUARD = """
import json, sys
import permlab.schreier as schreier
from permlab.cli import main
descents, descend = [], schreier._descend
def counting(*args):
    descents.append(1)
    return descend(*args)
schreier._descend = counting
codes = [main([*argv, "-o", out]) for argv, out in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "descents": len(descents),
                  "loaded": [m for m in ("numpy.random", "numpy.ma", "dataclasses")
                             if m in sys.modules]}))
"""


def test_job_paths_import_neither_numpy_random_nor_numpy_ma(tmp_path):
    # every kind of benchmark `actions` job and one `verify`, in one fresh
    # interpreter: numpy.random and numpy.ma cost 8-23 ms each to import, and
    # dataclasses would bring back its decorators' code generation
    graph, hom = tmp_path / "alt5.graph", tmp_path / "sym4.map"
    write_graph_file(regular_action_graph(construct_group("alt5")), graph)
    write_almost_hom_file(almost_hom(construct_group("sym4"), {
        3: parse_permutation("(1 2)(4 5)", degree=5)}, degree=5), hom)
    commands = [
        ("schreier", "--graph", f"file:{graph}", "--mode", "report"),
        ("schreier", "--graph", "regular:alt5", "--mode", "clusters"),
        ("schreier", "--graph", "regular:psl2(7)", "--mode", "exact-autos"),
        ("schreier", "--graph", "regular:sym3", "--mode", "clusters",
         "--search", "local-search", "--eps", "1/2", "--restarts", "3"),
        ("rigidity", "--group", "psl2(7)", "--check", "biregular"),
        ("rigidity", "--check", "action-centralizer",
         "--perms", "(1 2 3 4)(5 6 7 8);(1 5)(2 6)(3 7)(4 8)"),
        ("stability", "--group", "cyclic2", "--degree", "6"),
        ("stability", "--map", str(hom), "--window", "1/5"),
        ("primes", "--q", "7,11", "--gamma", "1,0"),
        ("verify", "--groups", "alt5,sym4"),
    ]
    argv = json.dumps([(c, str(tmp_path / f"r{k}.json")) for k, c in enumerate(commands)])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(commands)
    assert result["descents"] > 0
    assert result["loaded"] == []
