"""Every differentiable path against central differences: each task ×
strategy pair, on one instance and on a packed batch, and constant-weight
ACTM, on tiny float64 models (tests/gradcheck.py)."""

import pytest

import gradcheck as gc

BOUND = 1e-4
# Where the whole encoder is checked; elsewhere the embedding table and the
# input projection's bias carry its gradient, which the encoder layers shape.
FULL_ENCODER = {("ate", "actm", True, False), ("asc", "actm", True, False),
                ("ate", "aam", True, False)}
ENCODER_PROBES = ["emb.word", "enc.in_proj.b"]


@pytest.mark.parametrize("case", gc.CASES, ids=gc.case_id)
def test_every_group_matches_central_differences(case):
    model, objective = gc.build(*case)
    for group, names in gc.param_groups(model).items():
        if group == "encoder" and case not in FULL_ENCODER:
            names = ENCODER_PROBES
        err = gc.finite_difference_check(objective, model.params, names=names)
        assert err < BOUND, (group, err)


def test_groups_cover_every_parameter():
    """The groups split each model's parameters, and each strategy's own
    weights are checked: w_a, alpha, gamma and beta for ASC ACTM, z for AAM."""
    for case in gc.CASES:
        model, _ = gc.build(*case)
        groups = gc.param_groups(model)
        assert sorted(n for names in groups.values() for n in names) == sorted(model.params.names())
        assert {"encoder", "head"} <= set(groups)
        task, strategy, learnable, _ = case
        if (task, strategy, learnable) == ("asc", "actm", True):
            assert {"w_a", "alpha", "gamma", "beta"} <= set(groups)
        if strategy == "aam":
            assert "z" in groups
