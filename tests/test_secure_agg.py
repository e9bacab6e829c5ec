"""Masked aggregation fidelity, transcript audits, and the quantile protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailfed.secure_agg
from tailfed import (
    AggregationTranscript,
    PinballSpec,
    audit_transcript,
    masked_weighted_sum,
    mm_quantile,
    pinball_loss,
    plain_weighted_sum,
    secure_quantile_for_round,
    weighted_quantile,
    WeightedValues,
)
from tailfed.data import stream

from oracles import grid_pinball_minimum, pinball_naive


def random_contributions(rng, n=None, dim=None):
    n = n or int(rng.integers(1, 12))
    dim = dim or int(rng.integers(1, 8))
    return [
        (rng.normal(size=dim) * float(rng.uniform(0.5, 20.0)), float(rng.uniform(0.1, 5.0)))
        for _ in range(n)
    ]


def assert_descent(spec, result):
    pt = [pinball_loss(spec, m) for m in result.trace]
    for prev, nxt in zip(pt, pt[1:]):
        assert nxt <= prev + 1e-12


# ---------------------------------------------------------------------------
# aggregation


def test_plain_weighted_sum_known_value():
    got = plain_weighted_sum([(np.array([1.0, 0.0]), 1.0), (np.array([0.0, 1.0]), 3.0)])
    assert np.allclose(got, [0.25, 0.75])


@given(st.integers(1, 40), st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_plain_weighted_sum_adds_rows_in_contribution_order(n, dim, seed):
    # Bit for bit the row-by-row sum; numpy's pairwise column sum differs in
    # the last bits, mostly at dim 1, and would change plain-run artifacts.
    rng = np.random.default_rng(seed)
    contribs = random_contributions(rng, n=n, dim=dim)
    total = np.zeros(dim)
    for v, w in contribs:
        total += np.float64(w) * v
    expected = total / np.array([w for _, w in contribs]).sum()
    assert plain_weighted_sum(contribs).tobytes() == expected.tobytes()


def test_contribution_validation():
    with pytest.raises(ValueError, match="at least one contribution"):
        plain_weighted_sum([])
    with pytest.raises(ValueError, match="share one dimension"):
        plain_weighted_sum([(np.zeros(2), 1.0), (np.zeros(3), 1.0)])
    with pytest.raises(ValueError, match="must be vectors"):
        plain_weighted_sum([(np.zeros((2, 2)), 1.0), (np.ones((2, 2)), 1.0)])
    with pytest.raises(ValueError, match="weights must be positive, got 0.0"):
        plain_weighted_sum([(np.zeros(2), 1.0), (np.zeros(2), 0.0)])


def test_masked_matches_plain_500_instances():
    rng = np.random.default_rng(40)
    for trial in range(500):
        contribs = random_contributions(rng)
        plain = plain_weighted_sum(contribs)
        masked, _ = masked_weighted_sum(contribs, pairwise_seed=trial)
        rel = np.linalg.norm(masked - plain) / max(np.linalg.norm(plain), 1e-30)
        assert rel <= 1e-9


def test_masked_is_deterministic_in_seed():
    rng = np.random.default_rng(41)
    contribs = random_contributions(rng, n=4, dim=3)
    a, ta = masked_weighted_sum(contribs, pairwise_seed=5)
    b, tb = masked_weighted_sum(contribs, pairwise_seed=5)
    assert np.array_equal(a, b)
    assert np.array_equal(ta.payloads, tb.payloads)


def test_single_contributor_flagged_and_exact():
    v = np.array([2.0, -1.0])
    got, transcript = masked_weighted_sum([(v, 3.0)], pairwise_seed=1)
    assert np.array_equal(got, v)
    assert "single_contributor_unmasked" in transcript.flags
    assert np.array_equal(transcript.payloads, [[6.0, -3.0, 3.0]])


def test_masked_payloads_hide_raw_values():
    rng = np.random.default_rng(43)
    for trial in range(50):
        contribs = random_contributions(rng, n=int(rng.integers(2, 8)))
        _, transcript = masked_weighted_sum(contribs, pairwise_seed=trial)
        report = audit_transcript(transcript, contribs)
        assert not report["leaked"]
        assert report["min_relative_distance"] > 1e-6


def test_audit_catches_plain_payloads():
    contribs = [(np.array([1.0, 2.0]), 1.0), (np.array([3.0, 4.0]), 2.0)]
    # one payload row per client: the value channels plus the weight channel
    _, masked = masked_weighted_sum(contribs, pairwise_seed=3)
    assert masked.payloads.shape == (2, 3)
    # Unmasked payloads are the raw [w * v, w] rows, which the audit must flag.
    plain = AggregationTranscript(np.array([np.append(w * v, w) for v, w in contribs]))
    report = audit_transcript(plain, contribs)
    assert report["leaked"]
    assert report["min_relative_distance"] == 0.0


def spy_on_masked_sums(monkeypatch):
    """Record (contributions, transcript) of every masked sum the MM protocol runs."""
    calls = []
    real = tailfed.secure_agg.masked_weighted_sum

    def spy(contributions, pairwise_seed):
        result, transcript = real(contributions, pairwise_seed)
        calls.append((contributions, transcript))
        return result, transcript

    monkeypatch.setattr(tailfed.secure_agg, "masked_weighted_sum", spy)
    return calls


def mask_part(contributions, transcript):
    """What the masks added to each payload row: the payloads less the raw [w * v, w] rows."""
    raw = np.array([np.append(w * np.asarray(v), w) for v, w in contributions])
    return transcript.payloads - raw


# Ten values the MM iteration needs six steps for.
MM_SPEC = PinballSpec(np.random.default_rng(46).normal(size=10) * 10, np.full(10, 0.1), tau=0.35)


def test_mask_seed_rotates_masks_but_not_results(monkeypatch):
    calls = spy_on_masked_sums(monkeypatch)
    masked = mm_quantile(MM_SPEC, mask_seed=17)
    plain = mm_quantile(MM_SPEC)
    assert len(calls) == masked.iterations == 6
    assert masked.value == plain.value and masked.iterations == plain.iterations
    masks = [mask_part(*call) for call in calls]
    for earlier, later in zip(masks, masks[1:]):
        assert not np.allclose(earlier, later)  # fresh sub-seed per step
    for contributions, transcript in calls:
        sums = transcript.payloads.sum(axis=0)
        assert np.allclose(sums[:-1] / sums[-1], plain_weighted_sum(contributions), rtol=1e-9)


def test_mm_masks_differ_from_a_direct_masked_sum(monkeypatch):
    # The protocol's sub-seeds must not come from the direct sum's stream of
    # the same seed: a round's threshold step would then reuse its update
    # masks.
    calls = spy_on_masked_sums(monkeypatch)
    mm_quantile(MM_SPEC, mask_seed=23)
    contributions, sent = calls[0]
    _, direct = masked_weighted_sum(contributions, 23)  # the real sum, imported before the spy
    for row, own in zip(sent.payloads, direct.payloads):
        assert not np.allclose(row, own)


def test_mm_step_c_masks_with_the_c_th_draw_of_the_sub_seed_stream(monkeypatch):
    calls = spy_on_masked_sums(monkeypatch)
    mm_quantile(MM_SPEC, mask_seed=29)
    sub_seeds = stream(29, 1)
    for contributions, sent in calls:
        _, expected = masked_weighted_sum(contributions, int(sub_seeds.integers(1 << 63)))
        assert np.array_equal(sent.payloads, expected.payloads)


# ---------------------------------------------------------------------------
# pinball loss and the MM quantile iteration


def test_pinball_spec_validation():
    with pytest.raises(ValueError):
        PinballSpec(np.array([1.0]), np.array([1.0]), tau=0.0)
    with pytest.raises(ValueError):
        PinballSpec(np.array([1.0]), np.array([1.0]), tau=1.0)
    with pytest.raises(ValueError):
        PinballSpec(np.array([1.0, 2.0]), np.array([0.9, 0.4]), tau=0.5)


def test_pinball_loss_three_point_example():
    spec = PinballSpec(np.array([1.0, 2.0, 3.0]), np.full(3, 1 / 3), tau=0.5)
    assert pinball_loss(spec, 2.0) == pytest.approx(1 / 3, abs=1e-15)


def test_pinball_loss_matches_naive():
    rng = np.random.default_rng(44)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        vals = rng.normal(size=n) * 5
        w = rng.uniform(0.1, 1.0, size=n)
        w /= w.sum()
        tau = float(rng.uniform(0.05, 0.95))
        mu = float(rng.normal() * 5)
        spec = PinballSpec(vals, w, tau=tau)
        assert pinball_loss(spec, mu) == pytest.approx(
            pinball_naive(vals, w, tau, mu), abs=1e-12
        )


def test_mm_three_point_matches_grid():
    spec = PinballSpec(np.array([1.0, 2.0, 3.0]), np.full(3, 1 / 3), tau=0.5)
    res = mm_quantile(spec)
    grid_mu, _ = grid_pinball_minimum([1.0, 2.0, 3.0], [1 / 3] * 3, 0.5, 0.0, 4.0, 1e-5)
    assert res.converged
    assert abs(res.value - grid_mu) <= 1e-6


def test_mm_start_on_quantile_point_returns_it():
    spec = PinballSpec(np.array([1.0, 2.0, 3.0]), np.full(3, 1 / 3), tau=0.5)
    res = mm_quantile(spec, init=2.0)
    assert res.value == 2.0
    assert res.converged
    assert res.iterations == 1


def test_mm_start_on_wrong_data_point_recovers():
    spec = PinballSpec(np.array([1.0, 2.0, 3.0]), np.full(3, 1 / 3), tau=0.5)
    for start in (1.0, 3.0):
        res = mm_quantile(spec, init=start)
        assert res.converged
        assert abs(res.value - 2.0) <= 1e-8
        assert_descent(spec, res)


def test_mm_matches_direct_quantile_on_random_instances():
    rng = np.random.default_rng(45)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 60))
        vals = rng.normal(size=n) * float(rng.uniform(0.1, 50.0))
        if len(np.unique(vals)) != n:
            continue
        w = rng.uniform(0.05, 1.0, size=n)
        w /= w.sum()
        tau = float(rng.uniform(0.05, 0.95))
        cum = np.cumsum(w[np.argsort(vals)])
        if np.min(np.abs(cum - tau)) < 1e-3:
            continue  # quantile not comfortably unique
        checked += 1
        spec = PinballSpec(vals, w, tau=tau)
        res = mm_quantile(spec)
        direct = weighted_quantile(WeightedValues(vals, w), 1.0 - tau)
        assert res.converged
        assert abs(res.value - direct) <= 1e-5
        assert_descent(spec, res)


def test_mm_flat_interval_returns_a_minimizer():
    # symmetric pair at tau = 1/2: every point between the two values is a
    # minimizer, so only the attained loss is pinned down
    vals = np.array([-1.0, 1.0])
    spec = PinballSpec(vals, np.array([0.5, 0.5]), tau=0.5)
    res = mm_quantile(spec)
    assert res.converged
    assert -1.0 <= res.value <= 1.0
    assert pinball_loss(spec, res.value) == pytest.approx(pinball_loss(spec, 0.0), abs=1e-12)


def test_mm_one_weighted_sum_per_update(monkeypatch):
    rng = np.random.default_rng(46)
    vals = rng.normal(size=10)
    w = np.full(10, 0.1)
    spec = PinballSpec(vals, w, tau=0.3)
    for mask_seed, name in ((None, "plain_weighted_sum"), (31, "masked_weighted_sum")):
        calls = [0]
        real = getattr(tailfed.secure_agg, name)

        def counting(contribs, *seed, real=real):
            calls[0] += 1
            assert all(np.shape(v) == (2,) for v, _ in contribs)  # [beta_k x_k, beta_k]
            return real(contribs, *seed)

        monkeypatch.setattr(tailfed.secure_agg, name, counting)
        res = mm_quantile(spec, mask_seed=mask_seed)
        monkeypatch.undo()
        assert res.converged
        assert calls[0] == res.iterations


def test_mm_flat_stretch_snaps_to_the_same_point_masked_or_plain():
    # Cumulative weight reaches tau = 1/2 exactly at 0.46, so the pinball
    # loss is flat on [0.46, 0.53] and the MM start (the weighted mean,
    # 0.491) lies on that stretch. The result must not depend on the masks'
    # roundoff: every run snaps to the nearest optimal data point.
    losses = [0.42, 0.45, 0.46, 0.53, 0.54]
    counts = [6.0, 10.0, 8.0, 9.0, 15.0]
    direct = weighted_quantile(WeightedValues(losses, np.array(counts) / 48.0), 0.5)
    assert direct == 0.46
    assert secure_quantile_for_round(losses, counts, 0.5) == direct
    for seed in range(20):
        assert secure_quantile_for_round(losses, counts, 0.5, mask_seed=seed) == direct


def test_mm_nonconvergence_returns_best_iterate():
    rng = np.random.default_rng(47)
    vals = rng.normal(size=30) * 10
    w = np.full(30, 1 / 30)
    spec = PinballSpec(vals, w, tau=0.25)
    res = mm_quantile(spec, max_iters=1)
    assert not res.converged
    assert res.iterations == 1
    pt = [pinball_loss(spec, m) for m in res.trace]
    assert pinball_loss(spec, res.value) == pytest.approx(min(pt), abs=1e-15)


# ---------------------------------------------------------------------------
# round-level quantile protocol


def test_round_quantile_single_device():
    assert secure_quantile_for_round([7.5], [2.0], theta=0.3) == 7.5


def test_round_quantile_theta_one_is_min():
    assert secure_quantile_for_round([3.0, 1.0, 2.0], [1, 1, 1], theta=1.0) == 1.0


def test_round_quantile_four_uniform_devices():
    got = secure_quantile_for_round([1.0, 2.0, 3.0, 4.0], [1.0] * 4, theta=0.5)
    spec = PinballSpec(np.array([1.0, 2.0, 3.0, 4.0]), np.full(4, 0.25), tau=0.5)
    assert pinball_loss(spec, got) == pytest.approx(pinball_loss(spec, 2.0), abs=1e-12)


def test_round_quantile_accepts_unnormalized_weights():
    losses = [0.5, 1.5, 2.5, 3.5, 9.0]
    counts = [10.0, 20.0, 30.0, 25.0, 15.0]
    a = secure_quantile_for_round(losses, counts, theta=0.4)
    b = secure_quantile_for_round(losses, list(np.array(counts) / sum(counts)), theta=0.4)
    assert a == pytest.approx(b, abs=1e-12)


def test_round_quantile_masked_equals_plain():
    rng = np.random.default_rng(48)
    for trial in range(20):
        n = int(rng.integers(2, 40))
        losses = rng.normal(size=n) * 10
        wts = rng.uniform(0.5, 2.0, size=n)
        theta = float(rng.uniform(0.2, 0.9))
        qa = secure_quantile_for_round(losses, wts, theta, mask_seed=100 + trial)
        qb = secure_quantile_for_round(losses, wts, theta)
        assert abs(qa - qb) <= 1e-7 * max(1.0, abs(qb))
