"""Report drift guard: seed-invariant benchmark commands, run in-process,
must reproduce the reports frozen in perfbench/expected/ (only the echoed
seed is ignored).  The files are read, never written."""

import json
from pathlib import Path

import pytest

from permlab.cli import main

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected"

JOBS = {
    "verify-default": ("verify",),
    "verify-centralizer": ("verify", "--strategy", "centralizer"),
    "verify-felgner-naive": ("verify", "--groups", "alt6,sym6,psl2(7)",
                             "--sentences", "felgner", "--strategy", "naive"),
    "verify-phi1": ("verify", "--sentences",
                    "felgner.phi1.literal,felgner.phi1.generated"),
    "verify-sym7-remark": ("verify", "--groups", "sym7", "--sentences",
                           "prime_remark", "--strategy", "class"),
    "verify-alt9-congruence": ("verify", "--groups", "alt9", "--sentences",
                               "congruence(1,3)"),
    "verify-sym9-remark": ("verify", "--groups", "sym9", "--sentences",
                           "prime_remark", "--strategy", "centralizer"),
    "stability-cyclic2-scan": ("stability", "--group", "cyclic2", "--degree", "6"),
    "schreier-alt7-report": ("schreier", "--graph", "regular:alt7",
                             "--mode", "report"),
    "schreier-psl2-7-exact-autos": ("schreier", "--graph", "regular:psl2(7)",
                                    "--mode", "exact-autos"),
    "rigidity-psl2-7-biregular": ("rigidity", "--group", "psl2(7)",
                                  "--check", "biregular"),
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_matches_frozen_benchmark_report(tmp_path, name):
    out = tmp_path / "report.json"
    code = main([*JOBS[name], "--seed", "0", "-o", str(out)])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    expected = json.loads((EXPECTED / f"{name}.json").read_text(encoding="utf-8"))
    report.pop("seed", None)
    expected.pop("seed", None)
    assert report == expected
