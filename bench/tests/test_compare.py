import json

import pytest

import compare


def test_same_within_bound():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    new = [101, 102, 100, 101, 103, 99, 101, 102, 100, 101]
    assert compare.verdict(base, new, "lower", 0.1) == "same"


def test_better_beyond_base_spread():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    new = [v * 0.8 for v in base]
    assert compare.verdict(base, new, "lower", 0.1) == "better"
    # for a higher-is-better metric the same numbers are a regression
    assert compare.verdict(base, new, "higher", 0.1) == "worse"


def test_worse_beyond_bound():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    new = [11.5, 11.6, 11.4, 11.5, 11.55]
    assert compare.verdict(base, new, "lower", 0.1) == "worse"
    assert compare.verdict(base, new, "lower", 0.2) == "same"


def test_unresolved_when_spread_exceeds_bound():
    base = [60, 100, 140, 80, 120, 100, 90, 110]
    new = [70, 95, 150, 85, 118, 105, 88, 112]
    assert compare.verdict(base, new, "lower", 0.1) == "unresolved"
    # noisy but every new run beats every base run
    assert compare.verdict(base, [v / 3 for v in new], "lower", 0.1) == "better"
    # noisy, every new run loses and the median is beyond the bound
    assert compare.verdict(base, [v * 3 for v in new], "lower", 0.1) == "worse"


def test_change_sign_is_worse_positive():
    assert compare.change([10.0], [12.0], "lower") == pytest.approx(0.2)
    assert compare.change([10.0], [12.0], "higher") == pytest.approx(-0.2)


def test_quality_is_paired_by_seed():
    base = {1: 3.0, 2: 4.0, 3: 2.0}
    assert compare.quality_verdict(base, dict(base)) == (3, 0.0, "identical")
    # seed 4 has no partner and is ignored
    assert compare.quality_verdict(base, {1: 3.3, 2: 4.4, 3: 2.2, 4: 9.0})[2] == "worse"
    assert compare.quality_verdict(base, {1: 3.01, 2: 4.0, 3: 2.0})[2] == "changed"
    assert compare.quality_verdict(base, {9: 1.0}) == (0, 0.0, "-")


def _write(directory, workload, seed, value):
    doc = {"workload": workload, "trace": 0, "seed": seed, "test_mape_pct": 3.0,
           "metrics": {"op_ms_p50": {"value": value, "unit": "ms"}}}
    (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(doc))


def test_compare_result_sets(tmp_path, capsys):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    for seed in range(5):
        _write(base, "gbt", seed, 100.0 + seed)
        _write(new, "gbt", seed, 150.0 + seed)
    spec = {"workloads": [{"name": "gbt"}],
            "end_to_end": [{"name": "op_ms_p50", "unit": "ms",
                            "better": "lower", "bound": 0.1}],
            "per_layer": []}
    verdicts = compare.compare(str(base), str(new), spec)
    assert verdicts == {("gbt", "op_ms_p50"): "worse",
                        ("gbt", "test_mape_pct"): "identical"}
    assert "gbt" in capsys.readouterr().out
