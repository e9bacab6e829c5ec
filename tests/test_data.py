"""Population construction, synthetic generators, and jsonl interchange."""

import json
import os
import re
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfed import (
    Population,
    WeightedValues,
    gen_gaussian_mixture,
    gen_hetero_logistic,
    load_devices_jsonl,
    save_devices_jsonl,
    split_devices,
    stream,
)


def test_population_normalizes_weights():
    pop = Population(np.zeros((4, 2)), np.zeros(4), [1, 3], ("a", "b"), [2.0, 6.0])
    assert pop.weights == pytest.approx([0.25, 0.75])
    assert pop.feature_dim == 2


def test_population_leaves_its_shards_alone():
    # A device's view has weight 1 of its own; building the views, or a
    # selection, leaves the population's weights as they were.
    pop = Population(np.zeros((2, 2)), np.zeros(2), [1, 1], ("a", "b"), [1.0, 1.0])
    pop.select([0])
    assert [s.weights.tolist() for s in pop.shards] == [[1.0], [1.0]]
    assert pop.weights.tolist() == [0.5, 0.5]
    WeightedValues(np.zeros(2), pop.weights)  # a profile takes the weights as they are


def test_population_shards_cannot_grow_after_construction():
    # weights, ids and the packed arrays are read on construction, so a
    # device added later would be a device with no weight
    pop = Population(np.zeros((2, 2)), np.zeros(2), [1, 1], ("a", "b"), [1.0, 1.0])
    with pytest.raises(AttributeError):
        pop.shards.append(pop.shards[0])
    assert len(pop) == pop.weights.size == len(pop.device_ids) == len(pop.shards) == 2


def test_population_holds_its_rows_once():
    pop = gen_hetero_logistic(5, (2, 6), 3, 2, 0.8, seed=13)
    for k, shard in enumerate(pop.shards):
        a, b = int(pop.offsets[k]), int(pop.offsets[k] + pop.sizes[k])
        assert np.shares_memory(shard.features, pop.features)
        assert np.shares_memory(shard.labels, pop.labels)
        assert np.array_equal(shard.features, pop.features[a:b])
        assert np.array_equal(shard.labels, pop.labels[a:b])
    assert pop.shards is pop.shards  # built once


@pytest.mark.parametrize("real_labels", [False, True])
def test_shards_are_one_device_populations_of_views(real_labels):
    pop = gen_hetero_logistic(6, (1, 5), 3, 3, 0.8, seed=21)
    if real_labels:
        pop = Population(pop.features, pop.labels + 0.5, pop.sizes, pop.device_ids, pop.weights)
    assert len(pop.shards) == len(pop)
    for k, shard in enumerate(pop.shards):
        assert type(shard) is Population and len(shard) == 1
        assert shard.device_ids == (pop.device_ids[k],)
        assert shard.weights.tolist() == [1.0]
        assert shard.sizes.tolist() == [pop.sizes[k]] and shard.offsets.tolist() == [0]
        assert shard.sizes.dtype == np.int64 and shard.feature_dim == pop.feature_dim
        for name in ("features", "labels"):
            view, whole = getattr(shard, name), getattr(pop, name)
            assert np.shares_memory(view, whole) and view.dtype == whole.dtype
            assert view.tobytes() == whole[pop.offsets[k] : pop.offsets[k] + pop.sizes[k]].tobytes()
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0


def test_population_arrays_and_shard_views_are_read_only():
    pop = gen_hetero_logistic(3, (2, 4), 2, 2, 0.5, seed=2)
    shard = pop.shards[1]
    for array in (pop.features, pop.labels, pop.sizes, pop.offsets, pop.weights, shard.features, shard.labels):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(AttributeError):
        pop.features = np.zeros_like(pop.features)


def test_population_constructor_checks_its_arrays():
    X, y = np.zeros((3, 2)), np.zeros(3)
    ok = dict(features=X, labels=y, sizes=[1, 2], device_ids=("a", "b"), weights=[1.0, 3.0])
    pop = Population(**ok)
    assert pop.weights.tolist() == [0.25, 0.75] and pop.offsets.tolist() == [0, 1]
    cases = {
        "at least one device": dict(sizes=[], device_ids=(), weights=[]),
        r"must be \(N, p\) and \(N,\)": dict(labels=np.zeros(2)),
        "integers of at least 1 that sum to the 3 rows": dict(sizes=[1, 1]),
        "integers of at least 1": dict(sizes=[0, 3]),
        "integers of": dict(sizes=[1.5, 1.5]),
        r"one device id per device \(2\), got 3": dict(device_ids=("a", "b", "c")),
        "one finite, positive weight": dict(weights=[1.0, 0.0]),
        r"\(3, 0\) and labels \(3,\) must be \(N, p\) and \(N,\), p >= 1": dict(features=np.zeros((3, 0))),
    }
    for message, bad in cases.items():
        with pytest.raises(ValueError, match=message):
            Population(**{**ok, **bad})
    for weights in ([1.0], [1.0, np.inf], [1.0, np.nan], [1.0, -1.0]):
        with pytest.raises(ValueError, match="one finite, positive weight per device"):
            Population(**{**ok, "weights": weights})


def test_population_constructor_views_its_inputs_without_writing_their_flags():
    X = np.arange(6.0).reshape(3, 2)
    pop = Population(X, np.zeros(3), [3], ("a",), [1.0])
    assert np.shares_memory(pop.features, X) and X.flags.writeable
    assert pop.weights.tolist() == [1.0]


def test_weights_by_count(tmp_path):
    # Generated and parsed devices are weighted by their share of the rows.
    pop = gen_hetero_logistic(7, (1, 9), 2, 2, 0.5, seed=3)
    assert pop.weights.tolist() == (pop.sizes / pop.sizes.sum()).tolist()
    path = tmp_path / "devices.jsonl"
    rows = [(2, [1, -1]), (6, [1, -1, 1, -1, 1, -1])]
    path.write_text("".join(json.dumps({"id": d, "x": [[0.0]] * n, "y": y}) + "\n" for d, (n, y) in zip("ab", rows)))
    for _ in ("cold", "warm"):
        assert load_devices_jsonl(path).weights.tolist() == [0.25, 0.75]


def packed_reference(ids, rows):
    """The population of per-device (X, y) arrays, weighted by the devices' shares of the rows."""
    sizes = np.array([len(y) for _, y in rows])
    features, labels = np.concatenate([X for X, _ in rows]), np.concatenate([y for _, y in rows])
    return Population(features, labels, sizes, ids, sizes / sizes.sum())


def last_device(pop):
    return pop.features[pop.offsets[-1] :], pop.labels[pop.offsets[-1] :]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    num_devices=st.integers(1, 5),
    n_range=st.tuples(st.integers(1, 4), st.integers(0, 4)).map(lambda t: (t[0], t[0] + t[1])),
    dim=st.integers(1, 3),
    classes=st.integers(2, 4),
    het=st.floats(0.0, 2.0),
    seed=st.integers(-(2**63), 2**63 - 1),
)
def test_generated_populations_equal_a_packing_of_their_devices(num_devices, n_range, dim, classes, het, seed):
    # Device k draws from stream (seed, 0, k) alone, so its rows are the last
    # device's rows of the population of its first k + 1 devices.
    ids = [f"dev{k:03d}" for k in range(num_devices)]
    pop = gen_hetero_logistic(num_devices, n_range, dim, classes, het, seed)
    rows = [last_device(gen_hetero_logistic(k + 1, n_range, dim, classes, het, seed)) for k in range(num_devices)]
    assert_same_population(pop, packed_reference(ids, rows))
    means = stream(seed, 9).normal(size=(num_devices, dim))
    pop = gen_gaussian_mixture(means, n_range[1], seed)
    rows = [last_device(gen_gaussian_mixture(means[: k + 1], n_range[1], seed)) for k in range(num_devices)]
    assert_same_population(pop, packed_reference(ids, rows))


finite = st.floats(-1e6, 1e6, allow_nan=False)
device_rows = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(finite, min_size=2, max_size=2), min_size=n, max_size=n),
        st.one_of(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            # real labels, none whole, so the parser keeps them real
            st.lists(finite.map(lambda v: v + 0.5 if v.is_integer() else v), min_size=n, max_size=n),
        ),
    )
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(devices=st.lists(device_rows, min_size=1, max_size=5))
def test_parsed_populations_equal_a_packing_of_their_devices(devices):
    ids = [f"d{k}" for k in range(len(devices))]
    want = packed_reference(ids, [(np.array(x, dtype=np.float64), np.array(y)) for x, y in devices])
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "devices.jsonl"
        path.write_text("".join(json.dumps({"id": d, "x": x, "y": y}) + "\n" for d, (x, y) in zip(ids, devices)))
        for _ in ("cold", "warm"):
            assert_same_population(load_devices_jsonl(path), want)


def test_generators_parser_and_writer_build_no_shards_and_one_population(tmp_path, monkeypatch):
    # A device's view is a population too, so one construction per call
    # also means that no view was built.
    built = []
    init = Population.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Population, "__init__", counted)
    pops = [gen_hetero_logistic(6, (2, 5), 3, 3, 1.0, seed=2), gen_gaussian_mixture(np.eye(3), 4, seed=1)]
    assert built == pops
    path = tmp_path / "devices.jsonl"
    save_devices_jsonl(pops[0], path)
    for copy_before in (False, True):
        assert copy_of(path).exists() == copy_before
        built.clear()
        pop = load_devices_jsonl(path)
        assert built == [pop]
    built.clear()
    save_devices_jsonl(pop, tmp_path / "again.jsonl")
    assert built == [] and (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(-(2**63), 2**63 - 1),
    tags=st.lists(st.integers(0, 2**64 - 1), max_size=3),
)
def test_stream_is_the_masked_seed_sequence(seed, tags):
    # every seed site relies on this: same entropy, same generator, same draws
    want = np.random.default_rng(np.random.SeedSequence(entropy=(seed & (2**63 - 1), *tags)))
    got = stream(seed, *tags)
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.random(4), want.random(4))


# ---------------------------------------------------------------------------
# generators


def test_gaussian_mixture_layout_and_determinism():
    means = np.array([[0.0, 0.0], [3.0, -1.0]])
    pop1 = gen_gaussian_mixture(means, n_per_device=500, seed=9)
    pop2 = gen_gaussian_mixture(means, n_per_device=500, seed=9)
    assert len(pop1) == 2
    assert pop1.weights == pytest.approx([0.5, 0.5])
    for a, b in zip(pop1.shards, pop2.shards):
        assert np.array_equal(a.features, b.features)
    for k, shard in enumerate(pop1.shards):
        emp = shard.features.mean(axis=0)
        assert np.linalg.norm(emp - means[k]) <= 4.0 / np.sqrt(500) * np.sqrt(2) + 0.05


def test_gaussian_mixture_seed_changes_draws():
    means = np.array([[0.0, 0.0]])
    a = gen_gaussian_mixture(means, 10, seed=1).shards[0].features
    b = gen_gaussian_mixture(means, 10, seed=2).shards[0].features
    assert not np.array_equal(a, b)


def test_hetero_logistic_shapes_and_ranges():
    pop = gen_hetero_logistic(
        num_devices=12, n_range=(5, 20), feature_dim=4, num_classes=2,
        heterogeneity=0.7, seed=3,
    )
    assert len(pop) == 12
    assert pop.feature_dim == 4
    sizes = [int(s.sizes[0]) for s in pop.shards]
    assert all(5 <= n <= 20 for n in sizes)
    assert pop.weights == pytest.approx(np.array(sizes) / sum(sizes))
    for s in pop.shards:
        assert set(np.unique(s.labels)) <= {-1, 1}


def test_hetero_logistic_multiclass_labels_in_range():
    pop = gen_hetero_logistic(8, (4, 8), 3, num_classes=4, heterogeneity=0.5, seed=4)
    for s in pop.shards:
        assert s.labels.min() >= 0
        assert s.labels.max() < 4


def test_hetero_logistic_deterministic():
    kw = dict(num_devices=6, n_range=(5, 9), feature_dim=3, num_classes=2,
              heterogeneity=1.0, seed=11)
    p1 = gen_hetero_logistic(**kw)
    p2 = gen_hetero_logistic(**kw)
    for a, b in zip(p1.shards, p2.shards):
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


def test_hetero_logistic_device_count_invariance():
    # adding devices must not disturb existing ones (per-device streams)
    small = gen_hetero_logistic(3, (5, 9), 3, 2, 1.0, seed=11)
    large = gen_hetero_logistic(6, (5, 9), 3, 2, 1.0, seed=11)
    for a, b in zip(small.shards, large.shards[:3]):
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


def test_heterogeneity_spreads_devices():
    # at 0 every device sees one distribution; at 1 both the feature centers
    # and the label fractions should scatter
    base = dict(num_devices=40, n_range=(80, 80), feature_dim=3, num_classes=2, seed=5)
    iid = gen_hetero_logistic(heterogeneity=0.0, **base)
    het = gen_hetero_logistic(heterogeneity=1.0, **base)

    def center_spread(pop):
        centers = np.array([s.features.mean(axis=0) for s in pop.shards])
        return float(np.linalg.norm(centers.std(axis=0)))

    def label_spread(pop):
        fracs = np.array([np.mean(s.labels == 1) for s in pop.shards])
        return float(fracs.std())

    assert center_spread(het) > 2.0 * center_spread(iid)
    assert label_spread(het) > 2.0 * label_spread(iid)


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        gen_hetero_logistic(0, (1, 2), 3, 2, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_hetero_logistic(2, (5, 2), 3, 2, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_hetero_logistic(2, (1, 2), 3, 1, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_hetero_logistic(2, (1, 2), 3, 2, -0.5, seed=0)
    with pytest.raises(ValueError):
        gen_gaussian_mixture(np.zeros((0, 2)), 5, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by a zero width on the way
        with pytest.raises(ValueError, match="feature_dim must be >= 1"):
            gen_hetero_logistic(2, (1, 2), 0, 2, 0.5, seed=0)
    for heterogeneity in (np.nan, np.inf):
        with pytest.raises(ValueError, match="heterogeneity must be finite and nonnegative"):
            gen_hetero_logistic(2, (1, 2), 3, 2, heterogeneity, seed=0)
    for means in ([[0.0, np.nan]], [[np.inf, 0.0]], np.zeros((2, 0))):
        with pytest.raises(ValueError, match="means must be a non-empty"):
            gen_gaussian_mixture(means, 5, seed=0)


# ---------------------------------------------------------------------------
# splitting


def test_split_partitions_devices():
    pop = gen_hetero_logistic(10, (3, 6), 2, 2, 0.5, seed=6)
    train, test = split_devices(pop, 0.6, seed=1)
    assert len(train) == 6
    assert len(test) == 4
    assert set(train.device_ids).isdisjoint(test.device_ids)
    assert sorted(train.device_ids + test.device_ids) == sorted(pop.device_ids)
    assert float(train.weights.sum()) == pytest.approx(1.0)
    assert float(test.weights.sum()) == pytest.approx(1.0)


def test_split_is_deterministic():
    pop = gen_hetero_logistic(10, (3, 6), 2, 2, 0.5, seed=6)
    a1, b1 = split_devices(pop, 0.5, seed=7)
    a2, b2 = split_devices(pop, 0.5, seed=7)
    assert a1.device_ids == a2.device_ids
    assert b1.device_ids == b2.device_ids
    a3, _ = split_devices(pop, 0.5, seed=8)
    assert a1.device_ids != a3.device_ids


def test_split_sides_are_selections_of_the_population():
    pop = gen_hetero_logistic(11, (3, 6), 2, 2, 0.5, seed=6)
    for side in split_devices(pop, 0.4, seed=3):
        idx = [pop.device_ids.index(d) for d in side.device_ids]
        assert idx == sorted(idx)
        want = pop.select(idx)
        assert side.device_ids == want.device_ids
        for field in ("features", "labels", "sizes", "offsets", "weights"):
            got, ref = getattr(side, field), getattr(want, field)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_split_rejects_degenerate():
    pop = gen_hetero_logistic(3, (2, 3), 2, 2, 0.5, seed=6)
    with pytest.raises(ValueError):
        split_devices(pop, 0.01, seed=0)
    with pytest.raises(ValueError):
        split_devices(pop, 1.5, seed=0)


# ---------------------------------------------------------------------------
# jsonl interchange


def test_jsonl_round_trip_exact(tmp_path):
    pop = gen_hetero_logistic(5, (2, 6), 3, 2, 0.8, seed=13)
    path = tmp_path / "devices.jsonl"
    save_devices_jsonl(pop, path)
    back = load_devices_jsonl(path)
    assert back.device_ids == pop.device_ids
    assert back.weights == pytest.approx(pop.weights, abs=1e-15)
    for a, b in zip(pop.shards, back.shards):
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert a.labels.dtype == b.labels.dtype


def test_jsonl_real_valued_targets_survive(tmp_path):
    pop = Population(np.array([[1.0], [2.0]]), np.array([0.25, -1.5]), [2], ("r",), [1.0])
    path = tmp_path / "reg.jsonl"
    save_devices_jsonl(pop, path)
    back = load_devices_jsonl(path)
    assert back.shards[0].labels.dtype == np.float64
    assert np.array_equal(back.shards[0].labels, np.array([0.25, -1.5]))


def test_jsonl_mixed_integer_and_real_labels_round_trip_to_the_same_bytes(tmp_path):
    # Packing holds one float64 label vector, but a device whose labels are
    # all whole numbers is written back as integers, as it was read.
    text = (
        '{"id": "a", "x": [[1.0, 2.0], [0.5, -1.0]], "y": [1, -1]}\n'
        '{"id": "b", "x": [[3.0, 4.0]], "y": [0.25]}\n'
        '{"id": "c", "x": [[0.0, 1.0], [2.0, 2.0]], "y": [2, 0]}\n'
    )
    src, out = tmp_path / "mixed.jsonl", tmp_path / "again.jsonl"
    src.write_text(text)
    pop = load_devices_jsonl(src)
    assert pop.labels.dtype == np.float64
    save_devices_jsonl(pop, out)
    assert out.read_text() == text
    again = load_devices_jsonl(out)
    assert again.labels.tobytes() == pop.labels.tobytes()


@pytest.mark.parametrize(
    "line, where",
    [
        ('{"id": "a", "x": [[NaN, 1.0]], "y": [1]}', "x"),
        ('{"id": "a", "x": [[-Infinity, 1.0]], "y": [1]}', "x"),
        ('{"id": "a", "x": [[0.0, 1.0]], "y": [Infinity]}', "y"),
        ('{"id": "a", "x": [[0.0, 1.0]], "y": [NaN]}', "y"),
    ],
)
def test_jsonl_non_finite_values_name_line_and_device(tmp_path, line, where):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "ok", "x": [[0.0, 1.0]], "y": [1]}\n' + line + "\n")
    with pytest.raises(ValueError, match=rf"line 2 \(device 'a'\): {where} has a non-finite value"):
        load_devices_jsonl(path)


def test_jsonl_zero_width_features_name_line_and_device(tmp_path):
    # A device with no feature columns would give a model with no parameters.
    path = tmp_path / "flat.jsonl"
    for line, good in enumerate(("", '{"id": "ok", "x": [[0.0]], "y": [1]}\n'), start=1):
        path.write_text(good + '{"id": "a", "x": [[], []], "y": [1, 1]}\n')
        with pytest.raises(ValueError, match=rf"line {line} \(device 'a'\): x must be a non-empty matrix"):
            load_devices_jsonl(path)


def test_jsonl_whole_labels_beyond_int64_stay_real(tmp_path):
    # Casting 1e300 to int64 would wrap to garbage.
    path = tmp_path / "big.jsonl"
    path.write_text('{"id": "a", "x": [[0.0], [1.0]], "y": [1e300, 2.0]}\n')
    pop = load_devices_jsonl(path)
    assert pop.labels.dtype == np.float64 and pop.labels.tolist() == [1e300, 2.0]


def test_jsonl_invalid_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "x": [[1.0]], "y": [1]}\n{nope\n')
    with pytest.raises(ValueError, match="line 2"):
        load_devices_jsonl(path)


def test_jsonl_missing_key_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "x": [[1.0]]}\n')
    with pytest.raises(ValueError, match="line 1"):
        load_devices_jsonl(path)


def test_jsonl_label_count_mismatch_names_device(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "devX", "x": [[1.0],[2.0]], "y": [1]}\n')
    with pytest.raises(ValueError, match="devX"):
        load_devices_jsonl(path)


def test_jsonl_dimension_mismatch_between_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "x": [[1.0, 2.0]], "y": [1]}\n'
        '{"id": "b", "x": [[1.0]], "y": [1]}\n'
    )
    with pytest.raises(ValueError, match="line 2"):
        load_devices_jsonl(path)


NON_NUMERIC = [
    ('{"id": "a", "x": [["oops"]], "y": [1]}', "x is not a numeric matrix"),
    ('{"id": "a", "x": [["1.5", "2"]], "y": [1]}', "x is not a numeric matrix"),
    ('{"id": "a", "x": [[true, 0.0]], "y": [1]}', "x is not a numeric matrix"),
    ('{"id": "a", "x": [[null, 0.0]], "y": [1]}', "x is not a numeric matrix"),
    ('{"id": "a", "x": [[1.5, 2.0]], "y": [true]}', "y is not numeric"),
    ('{"id": "a", "x": [[1.5, 2.0]], "y": ["-1"]}', "y is not numeric"),
    ('{"id": "a", "x": [[1.5, 2.0]], "y": [null]}', "y is not numeric"),
    ('{"id": "a", "x": [[1' + "0" * 400 + ', 2.0]], "y": [1]}', "x is not a numeric matrix"),
    ('{"id": "a", "x": [[1.5, 2.0]], "y": [1' + "0" * 400 + "]}", "y is not numeric"),
]


def test_jsonl_non_numeric_features(tmp_path):
    # np.asarray(..., dtype=np.float64) reads "1.5" and true as numbers and
    # null as NaN, and raises OverflowError on an integer past float64's
    # range; a device file holds JSON numbers that float64 holds.
    path = tmp_path / "bad.jsonl"
    for line, message in NON_NUMERIC:
        path.write_text('{"id": "ok", "x": [[0.0, 1.0]], "y": [1]}\n' + line + "\n")
        with pytest.raises(ValueError, match=rf"line 2 \(device 'a'\): {message}"):
            load_devices_jsonl(path)
        assert not (tmp_path / "bad.jsonl.cache.npz").exists()


def test_jsonl_repeated_device_id_names_both_lines(tmp_path):
    # A string id and an integer id with the same text are one device id.
    path = tmp_path / "twice.jsonl"
    for first, again in (('"a"', '"a"'), ("7", '"7"')):
        path.write_text(
            f'{{"id": {first}, "x": [[0.0]], "y": [1]}}\n'
            '{"id": "b", "x": [[1.0]], "y": [1]}\n'
            f'{{"id": {again}, "x": [[2.0]], "y": [1]}}\n'
        )
        with pytest.raises(ValueError, match=rf"line 3: device id '{json.loads(again)}' repeats line 1"):
            load_devices_jsonl(path)


@pytest.mark.parametrize("value", ['{"k": 1}', "[1]", "true", "null", "1.5"])
def test_jsonl_device_ids_are_strings_or_integers(tmp_path, value):
    # Anything else would load as its Python repr ("{'k': 1}", "True") and
    # be written back as a different id.
    path = tmp_path / "ids.jsonl"
    good = '{"id": 7, "x": [[0.0]], "y": [1]}\n'
    path.write_text(good + f'{{"id": {value}, "x": [[1.0]], "y": [1]}}\n')
    with pytest.raises(ValueError, match=rf"line 2: device id {re.escape(value)} is not a string or an integer"):
        load_devices_jsonl(path)
    path.write_text(good)
    assert load_devices_jsonl(path).device_ids == ("7",)


def test_jsonl_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="no devices"):
        load_devices_jsonl(path)


# ---------------------------------------------------------------------------
# the binary copy beside a device file

# Ids that a str-dtype array would not keep: a trailing NUL, a lone
# surrogate; an integer id; devices with integer and with real labels.
COPY_TEXT = (
    '{"id": "a\\u0000", "x": [[1.0, 2.0], [0.5, -1.0]], "y": [1, -1]}\n'
    '{"id": "\\ud800\u00e9", "x": [[3.0, 4.0]], "y": [0.25]}\n'
    '{"id": 7, "x": [[0.0, 1.0], [2.0, 2.0], [1e-300, 5.5]], "y": [2, 0, 1]}\n'
)


def copy_of(path):
    return path.parent / f"{path.name}.cache.npz"


def assert_same_population(a, b):
    for name in ("features", "labels", "sizes", "weights", "offsets"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y) and x.tobytes() == y.tobytes(), name
    assert a.device_ids == b.device_ids


def rewrite_copy(copy, **changes):
    """Write the copy again with some members replaced; a member given as None is left out."""
    with np.load(copy) as z:
        members = {name: z[name] for name in z.files}
    members.update(changes)
    np.savez(copy, **{k: v for k, v in members.items() if v is not None})


def test_warm_load_equals_the_cold_load(tmp_path):
    path = tmp_path / "devices.jsonl"
    path.write_text(COPY_TEXT, encoding="utf-8")
    cold = load_devices_jsonl(path)
    assert copy_of(path).is_file()
    assert cold.device_ids == ("a\x00", "\ud800\u00e9", "7") and cold.labels.dtype == np.float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = load_devices_jsonl(str(path))
    assert_same_population(cold, warm)
    assert not warm.features.flags.writeable and not warm.labels.flags.writeable


def test_warm_load_decodes_no_json(tmp_path, monkeypatch):
    path = tmp_path / "devices.jsonl"
    save_devices_jsonl(gen_hetero_logistic(6, (2, 5), 3, 2, 1.0, seed=2), path)
    cold = load_devices_jsonl(path)

    def no_parse(*args, **kwargs):
        raise AssertionError("a warm load decoded JSON")

    monkeypatch.setattr(json, "loads", no_parse)
    assert_same_population(cold, load_devices_jsonl(path))


def test_same_length_edits_are_seen(tmp_path):
    path = tmp_path / "devices.jsonl"
    path.write_text(COPY_TEXT, encoding="utf-8")
    load_devices_jsonl(path)
    path.write_text(COPY_TEXT.replace("5.5", "6.5"), encoding="utf-8")
    assert load_devices_jsonl(path).features[-1].tolist() == [1e-300, 6.5]
    # Same length again, but no longer valid: the parse error, not the old population.
    path.write_text(COPY_TEXT.replace("5.5", "6.5").replace("[[3.0", "{[3.0"), encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: invalid JSON"):
        load_devices_jsonl(path)


def test_a_copy_of_another_version_is_rebuilt(tmp_path):
    path = tmp_path / "devices.jsonl"
    path.write_text(COPY_TEXT, encoding="utf-8")
    cold = load_devices_jsonl(path)
    with np.load(copy_of(path)) as z:
        key = z["key"]
    rewrite_copy(copy_of(path), key=key + [1, 0, 0], features=np.zeros((6, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_population(cold, load_devices_jsonl(path))
    with np.load(copy_of(path)) as z:
        assert np.array_equal(z["key"], key)


@pytest.mark.parametrize(
    "damage",
    [
        "truncated", "empty", "not-a-zip", "missing-member", "pickled-ids", "float32-features", "short-labels",
        "zero-size",
    ],
)
def test_an_unreadable_copy_warns_and_is_rebuilt(tmp_path, damage):
    path = tmp_path / "devices.jsonl"
    path.write_text(COPY_TEXT, encoding="utf-8")
    cold = load_devices_jsonl(path)
    copy = copy_of(path)
    data = copy.read_bytes()
    if damage == "truncated":
        copy.write_bytes(data[: len(data) // 2])
    elif damage == "empty":
        copy.write_bytes(b"")
    elif damage == "not-a-zip":
        copy.write_text("not a zip file")
    elif damage == "missing-member":
        rewrite_copy(copy, labels=None)
    elif damage == "pickled-ids":
        rewrite_copy(copy, ids=np.array([["a"], "b", "7"], dtype=object))
    elif damage == "float32-features":
        with np.load(copy) as z:
            rewrite_copy(copy, features=z["features"].astype(np.float32))
    elif damage == "short-labels":
        with np.load(copy) as z:
            rewrite_copy(copy, labels=z["labels"][:-1])
    else:
        rewrite_copy(copy, sizes=np.array([2, 0, 4]))
    with pytest.warns(RuntimeWarning, match=re.escape(f"unreadable device-file copy {copy}")):
        again = load_devices_jsonl(path)
    assert_same_population(cold, again)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_population(cold, load_devices_jsonl(path))


def test_an_unwritable_copy_warns_and_leaves_no_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "devices.jsonl"
    path.write_text(COPY_TEXT, encoding="utf-8")

    def read_only(src, dst):
        raise OSError(30, "Read-only file system", str(dst))

    monkeypatch.setattr(os, "replace", read_only)
    message = re.escape(f"could not write device-file copy {copy_of(path)}: ") + ".*Read-only"
    with pytest.warns(RuntimeWarning, match=message):
        pop = load_devices_jsonl(path)
    assert pop.device_ids == ("a\x00", "\ud800\u00e9", "7")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["devices.jsonl"]


def test_a_failed_parse_writes_no_copy(tmp_path):
    path = tmp_path / "devices.jsonl"
    path.write_text(COPY_TEXT + "{nope\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 4: invalid JSON"):
        load_devices_jsonl(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["devices.jsonl"]


def test_a_pipe_is_parsed_and_gets_no_copy(tmp_path):
    fifo = tmp_path / "devices.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(COPY_TEXT,), kwargs={"encoding": "utf-8"})
    writer.start()
    try:
        pop = load_devices_jsonl(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert pop.device_ids == ("a\x00", "\ud800\u00e9", "7")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["devices.fifo"]
