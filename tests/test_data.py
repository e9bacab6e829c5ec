"""Population construction, synthetic generators, and jsonl interchange."""

import json
import os
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfed import (
    DeviceShard,
    Population,
    WeightedValues,
    gen_gaussian_mixture,
    gen_hetero_logistic,
    load_devices_jsonl,
    save_devices_jsonl,
    split_devices,
    stream,
    weights_by_count,
)


def test_shard_validation():
    with pytest.raises(ValueError):
        DeviceShard("a", np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        DeviceShard("a", np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        DeviceShard("a", np.zeros((2, 2)), np.zeros(2), weight=0.0)


def test_population_normalizes_weights():
    shards = [
        DeviceShard("a", np.zeros((1, 2)), np.zeros(1), weight=2.0),
        DeviceShard("b", np.zeros((3, 2)), np.zeros(3), weight=6.0),
    ]
    pop = Population.from_shards(shards)
    assert pop.weights == pytest.approx([0.25, 0.75])
    assert pop.feature_dim == 2


def test_population_leaves_its_shards_alone():
    shards = [DeviceShard(d, np.zeros((1, 2)), np.zeros(1), weight=1.0) for d in "ab"]
    pop = Population.from_shards(shards)
    Population.from_shards(shards[:1])
    weights_by_count(shards)
    assert pop.weights.tolist() == [0.5, 0.5]
    WeightedValues(np.zeros(2), pop.weights)  # a profile takes the weights as they are
    assert [s.weight for s in shards] == [1.0, 1.0]


def test_population_shards_cannot_grow_after_construction():
    # weights, ids and the packed view are read on construction, so a shard
    # added later would be a device with no weight
    shards = [DeviceShard(d, np.zeros((1, 2)), np.zeros(1)) for d in "ab"]
    pop = Population.from_shards(shards)
    with pytest.raises(AttributeError):
        pop.shards.append(DeviceShard("c", np.zeros((1, 2)), np.zeros(1)))
    shards.append(DeviceShard("c", np.zeros((1, 2)), np.zeros(1)))
    assert len(pop) == pop.weights.size == len(pop.device_ids) == 2


def test_population_rejects_mixed_dims():
    shards = [
        DeviceShard("a", np.zeros((1, 2)), np.zeros(1)),
        DeviceShard("b", np.zeros((1, 3)), np.zeros(1)),
    ]
    with pytest.raises(ValueError):
        Population.from_shards(shards)


def test_population_holds_its_rows_once():
    pop = gen_hetero_logistic(5, (2, 6), 3, 2, 0.8, seed=13)
    for k, shard in enumerate(pop.shards):
        a, b = int(pop.offsets[k]), int(pop.offsets[k] + pop.sizes[k])
        assert np.shares_memory(shard.features, pop.features)
        assert np.shares_memory(shard.labels, pop.labels)
        assert np.array_equal(shard.features, pop.features[a:b])
        assert shard.device_id == pop.device_ids[k] and shard.weight == pop.weights[k]
    assert pop.shards is pop.shards  # built once


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


def test_weights_by_count():
    shards = [
        DeviceShard("a", np.zeros((2, 2)), np.array([1, -1])),
        DeviceShard("b", np.zeros((6, 2)), np.array([1, -1, 1, -1, 1, -1])),
    ]
    pop = weights_by_count(shards)
    assert pop.weights == pytest.approx([0.25, 0.75])


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
    sizes = [len(s) for s in pop.shards]
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
    shards = [DeviceShard("r", np.array([[1.0], [2.0]]), np.array([0.25, -1.5]))]
    path = tmp_path / "reg.jsonl"
    save_devices_jsonl(Population.from_shards(shards), path)
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
