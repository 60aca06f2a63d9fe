"""The declarative bench harness: suite validation, the absolute-limit
assertion engine, and end-to-end suite runs on tiny cases."""

import time
from pathlib import Path

import pytest

from repro.analysis import benchsuite as bs

SUITES = Path(__file__).resolve().parents[2] / "benchmarks" / "suites"


def suite_doc(cases, defaults=None):
    doc = {"schema": bs.SUITE_SCHEMA, "name": "t", "cases": cases}
    if defaults is not None:
        doc["defaults"] = defaults
    return doc


KCASE = {"name": "k", "kind": "kernel", "torus": 4, "scheduler": "greedy"}


# ----------------------------------------------------------------------
# suite validation
# ----------------------------------------------------------------------

def test_validate_accepts_minimal_suite():
    assert bs.validate_suite(suite_doc([dict(KCASE)]))["name"] == "t"


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("schema"), "schema"),
    (lambda d: d.update(schema="repro-bench/999"), "schema"),
    (lambda d: d.update(name=""), "name"),
    (lambda d: d.update(cases=[]), "cases"),
    (lambda d: d.update(cases="nope"), "cases"),
    (lambda d: d.update(cases=[{"kind": "kernel"}]), "name"),
    (lambda d: d.update(cases=[dict(KCASE, kind="nope")]), "kind"),
    (lambda d: d.update(cases=[dict(KCASE), dict(KCASE)]), "duplicate"),
    (lambda d: d.update(defaults={"assert": {"max_banana": 1}}), "unknown rule"),
    (lambda d: d.update(defaults={"assert": {"max_seconds": "fast"}}), "number"),
    (lambda d: d.update(
        defaults={"assert": {"max_seconds": {"value": 1, "severity": "fatal"}}}
    ), "severity"),
    (lambda d: d.update(
        defaults={"assert": {"max_seconds": {"severity": "error"}}}
    ), "value"),
])
def test_validate_rejects_malformed_suites(mutate, fragment):
    doc = suite_doc([dict(KCASE)])
    mutate(doc)
    with pytest.raises(bs.SuiteError, match=fragment):
        bs.validate_suite(doc)


@pytest.mark.parametrize("mutate, key", [
    (lambda d: d["cases"][0].update(sheduler="greedy"), "sheduler"),
    (lambda d: d["cases"][0].update(kernel="set"), "kernel"),
    (lambda d: d.update(defaults={"reapeats": 2}), "reapeats"),
    (lambda d: d.update(defaults={"kind": "cache"}), "kind"),
])
def test_validate_rejects_keys_no_runner_reads(mutate, key):
    # a typo must not silently run the default it failed to override
    doc = suite_doc([dict(KCASE)])
    mutate(doc)
    with pytest.raises(bs.SuiteError, match=f"unknown keys.*'{key}'"):
        bs.validate_suite(doc)


def test_committed_suites_load():
    paths = sorted(SUITES.glob("*.json"))
    assert len(paths) == 3
    for path in paths:
        assert bs.load_suite(str(path))["cases"]


def test_load_suite_rejects_bad_json(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("{not json")
    with pytest.raises(bs.SuiteError, match="not valid JSON"):
        bs.load_suite(str(path))
    with pytest.raises(bs.SuiteError, match="cannot read"):
        bs.load_suite(str(tmp_path / "missing.json"))


# ----------------------------------------------------------------------
# default/override merging
# ----------------------------------------------------------------------

def test_merge_assertions_case_overrides_suite_default():
    defaults = {"assert": {"max_seconds": 10.0, "max_degree": 100}}
    case = {"assert": {"max_seconds": {"value": 2.0, "severity": "warning"}}}
    merged = bs.merge_assertions(defaults, case)
    assert merged["max_seconds"] == {"value": 2.0, "severity": "warning"}
    # untouched default survives, normalized with error severity
    assert merged["max_degree"] == {"value": 100, "severity": "error"}


def test_merged_params_layering():
    params = bs._merged_params(
        {"repeats": 5, "torus": 8, "assert": {"max_seconds": 1}},
        {"name": "x", "torus": 4},
    )
    assert params["torus"] == 4 and params["repeats"] == 5
    assert "assert" not in params


# ----------------------------------------------------------------------
# assertion engine
# ----------------------------------------------------------------------

def test_evaluate_pass_fail_and_severities():
    metrics = {"seconds": 2.0, "throughput": 50.0, "degree": 8}
    rules = {
        "max_seconds": {"value": 1.0, "severity": "error"},
        "min_throughput": {"value": 10.0, "severity": "error"},
        "max_degree": {"value": 4, "severity": "warning"},
    }
    v = bs.evaluate_case(metrics, rules)
    by_rule = {a["rule"]: a for a in v["assertions"]}
    assert not by_rule["max_seconds"]["passed"]
    assert by_rule["min_throughput"]["passed"]
    assert not by_rule["max_degree"]["passed"]
    # only the error-severity failure gates; the warning one is counted
    assert v["errors"] == 1 and v["warnings"] == 1 and not v["passed"]


def test_evaluate_missing_metric_fails_the_rule():
    v = bs.evaluate_case(
        {"seconds": 1.0}, {"min_speedup": {"value": 2.0, "severity": "error"}}
    )
    (a,) = v["assertions"]
    assert not a["passed"] and "no 'speedup' metric" in a["detail"]


# ----------------------------------------------------------------------
# end-to-end suite runs
# ----------------------------------------------------------------------

def tiny_suite():
    return bs.validate_suite(suite_doc(
        [
            {"name": "4x4-greedy", "kind": "kernel", "torus": 4,
             "scheduler": "greedy",
             "assert": {"max_seconds": 60.0, "min_throughput": 1.0}},
            {"name": "4x4-fastpath", "kind": "kernel", "torus": 4,
             "scheduler": "fastpath",
             "assert": {"max_optimality_ratio": 2.0}},
        ],
        defaults={"repeats": 1},
    ))


def test_run_suite_produces_metrics_and_validation():
    report = bs.run_suite(tiny_suite())
    assert report["schema"] == bs.REPORT_SCHEMA
    assert report["summary"]["gate_ok"]
    by_name = {c["name"]: c for c in report["cases"]}
    m = by_name["4x4-greedy"]["metrics"]
    assert m["connections"] == 4 * 4 * 15 + 0  # 16 nodes all-to-all = 240
    assert m["connections"] == 240
    assert m["repeats"] == 1 and m["seconds"] > 0
    assert m["throughput"] == pytest.approx(240 / m["seconds"])
    assert by_name["4x4-greedy"]["validation"]["warnings"] == 0
    # header provenance rides along
    assert report["header"]["generator"] == "repro-tdm bench"
    assert "python" in report["header"] and "git" in report["header"]


def test_run_suite_only_filter_and_unknown_name():
    report = bs.run_suite(tiny_suite(), only=["4x4-fastpath"])
    assert [c["name"] for c in report["cases"]] == ["4x4-fastpath"]
    with pytest.raises(bs.SuiteError, match="unknown case"):
        bs.run_suite(tiny_suite(), only=["nope"])


# ----------------------------------------------------------------------
# case runners
# ----------------------------------------------------------------------

def test_kernel_case_generic_pattern(monkeypatch):
    # a slow first repeat: first_seconds must report that sample, which
    # best-of-N alone would hide
    from repro.core import greedy

    real, calls = greedy.greedy_schedule, []

    def cold_then_warm(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            time.sleep(0.05)
        return real(*args, **kwargs)

    monkeypatch.setattr(greedy, "greedy_schedule", cold_then_warm)
    m = bs.run_kernel_case({
        "torus": 4, "pattern": "ring", "scheduler": "greedy", "repeats": 2,
    })
    assert m["connections"] == 32 and m["degree"] >= 1  # bidirectional ring
    assert m["repeats"] == 2 and m["stddev_seconds"] >= 0.0
    assert "optimality_ratio" not in m  # lower bound is all-to-all only
    assert len(calls) == 2
    assert m["first_seconds"] >= 0.05
    assert m["first_seconds"] >= m["seconds"]
    # two samples: first + best = 2 * mean, so first is the slow sample
    assert m["first_seconds"] == pytest.approx(
        2 * m["mean_seconds"] - m["seconds"]
    )


def test_kernel_case_alltoall_optimality():
    m = bs.run_kernel_case({
        "torus": 4, "scheduler": "fastpath", "repeats": 1,
    })
    assert m["lower_bound"] >= 15
    assert m["optimality_ratio"] == pytest.approx(
        m["degree"] / m["lower_bound"], abs=1e-3
    )
    assert m["scheduler"].startswith("fastpath[")


def test_kernel_case_unknown_pattern_or_scheduler():
    with pytest.raises(bs.SuiteError, match="pattern"):
        bs.run_kernel_case({"torus": 4, "pattern": "banana"})
    with pytest.raises(bs.SuiteError, match="scheduler"):
        bs.run_kernel_case(
            {"torus": 4, "pattern": "ring", "scheduler": "fastpath"}
        )


def test_faults_case_protected_metrics():
    m = bs.run_faults_case({
        "torus": 4, "pattern": "nearest neighbour", "faults": [0, 1],
        "recovery": "protected", "size": 2,
    })
    assert m["fault_counts"] == [0, 1]
    assert m["ttr"] >= 0 and m["lost"] >= 0 and m["seconds"] > 0


def test_report_header_git_block():
    header = bs.report_header()
    git = header["git"]
    # inside this repo both fields resolve; the API tolerates absence
    assert set(git) == {"commit", "dirty"}
    if git["commit"] is not None:
        assert len(git["commit"]) == 40
