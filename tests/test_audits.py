"""Audit battery: the library checking its own promises end to end."""

from pathlib import Path

import pytest

from splitwise import DTInstance
from splitwise.audits import FAMILIES, run_battery
from splitwise.errors import ParameterError
from splitwise.tree import cost, interior_weight_sum, tree_from_text


def test_full_battery_seed0_passes():
    result = run_battery(seed=0)
    assert result.families_run == tuple(FAMILIES)
    assert result.failures == []
    mandatory = [l for l in result.lines if l.mandatory]
    bad = [l for l in mandatory if not l.passed]
    assert result.ok, f"{len(bad)} failing lines: " + \
        "; ".join(str(l) for l in bad[:5])
    assert len(result.lines) > 400


def test_battery_seeds_vary_but_pass():
    for seed in (1, 7):
        result = run_battery(seed=seed, only=["identity", "monotone"])
        assert result.ok, f"seed={seed}"


def test_only_filter_is_substring_match():
    result = run_battery(seed=0, only=["grid"])
    assert result.families_run == ("grid",)
    result = run_battery(seed=0, only=["bound"])
    assert result.families_run == ("greedy-bound",)
    result = run_battery(seed=0, only=["identity,monotone".split(",")[0],
                                       "monotone"])
    assert set(result.families_run) == {"identity", "monotone"}


def test_unknown_family_rejected():
    with pytest.raises(ParameterError) as ei:
        run_battery(only=["holographic"])
    assert "holographic" in str(ei.value)


def test_inject_fault_is_detected_with_artifacts():
    result = run_battery(seed=0, only=["identity"], inject_fault=True)
    assert not result.ok
    bad = [l for l in result.lines if l.mandatory and not l.passed]
    assert len(bad) == 1
    assert bad[0].name == "cost_identity"
    assert "injected" in bad[0].note
    assert len(result.failures) == 1
    art = result.failures[0]
    assert art.family == "identity"
    assert art.instance_text and art.tree_text


def test_inject_fault_float_mode_is_detected():
    result = run_battery(seed=0, only=["identity"], inject_fault=True,
                         float_mode=True)
    assert not result.ok
    bad = [l for l in result.lines if l.mandatory and not l.passed]
    assert len(bad) == 1
    assert bad[0].name == "cost_identity"
    assert "injected" in bad[0].note
    assert len(result.failures) == 1


def test_inject_fault_tags_only_the_corrupted_line():
    result = run_battery(seed=0, only=["identity"], inject_fault=True)
    tagged = [l for l in result.lines if "injected" in l.note]
    assert len(tagged) == 1 and not tagged[0].passed


def test_injected_artifact_does_not_reproduce():
    # Tree text carries no masks; parsing recomputes them, so the
    # corruption that made the line fail is gone from the artifact.
    art = run_battery(seed=0, only=["identity"],
                      inject_fault=True).failures[0]
    inst = DTInstance.from_text(art.instance_text)
    tree = tree_from_text(art.tree_text, inst)
    assert interior_weight_sum(tree, inst) == cost(tree, inst).raw


def test_inject_fault_without_identity_rejected():
    with pytest.raises(ParameterError) as ei:
        run_battery(seed=0, only=["monotone"], inject_fault=True)
    assert "identity" in str(ei.value)


def test_float_mode_battery_passes():
    result = run_battery(seed=0, float_mode=True)
    assert result.ok, "; ".join(
        str(l) for l in result.lines if l.mandatory and not l.passed)[:500]


def test_determinism():
    a = run_battery(seed=3, only=["mssc", "chains"])
    b = run_battery(seed=3, only=["mssc", "chains"])
    assert [str(l) for l in a.lines] == [str(l) for l in b.lines]


@pytest.mark.parametrize("float_mode,golden", [
    (False, "audit_seed0.txt"),
    (True, "audit_seed0_float.txt"),
])
def test_battery_matches_golden_output(float_mode, golden):
    """`splitwise audit --seed 0 [--float]`, pinned line for line: a
    refactor must not move a single audit figure."""
    expected = (Path(__file__).parent / "data" / golden).read_text().splitlines()
    result = run_battery(seed=0, float_mode=float_mode)
    lines = [l.format(as_float=float_mode) for l in result.lines]
    assert lines == expected[:-1]
    assert expected[-1] == (f"# families={len(result.families_run)} "
                            f"lines={len(result.lines)} failed=0 advisory="
                            f"{sum(1 for l in result.lines if not l.mandatory)}")
