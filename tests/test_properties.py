"""Property suites: round trips, invariants, determinism, scale invariance."""
import itertools
import json
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xfermon.collector import CollectorConfig, CollectorService, Record, SegmentStore
from xfermon.diagnose import classify, fit_baseline
from xfermon.metrics import (
    MINIMAL_NAMES,
    EnvelopeDecodeError,
    MetricEnvelope,
    Profile,
    catalog,
    decode_envelope,
    encode_envelope,
)
from xfermon.sim import (
    AnomalyClass,
    DatasetRow,
    Engine,
    build_run,
    builtin_testbeds,
    get_testbed,
    load_ndjson,
    run_rows,
    write_ndjson,
)
from xfermon.sim.engine import max_min_rates

from tests.test_sim import assert_conservation_and_capacity, random_run


# ----------------------------------------------------------------------
# envelope round trip
# ----------------------------------------------------------------------

finite_values = st.floats(
    min_value=0.0, max_value=1e15, allow_nan=False, allow_infinity=False
)


@st.composite
def envelopes(draw):
    profile = draw(st.sampled_from(list(Profile)))
    names = [k.name for k in catalog(profile)]
    values = {name: draw(finite_values) for name in names}
    return MetricEnvelope(
        transfer_id=draw(st.text(min_size=1, max_size=24).filter(lambda s: len(s.encode()) <= 64)),
        testbed_id=draw(st.text(min_size=1, max_size=12).filter(lambda s: len(s.encode()) <= 64)),
        timestamp=draw(st.integers(min_value=0, max_value=0xFFFFFFFF)),
        profile=profile,
        values=values,
    )


@settings(max_examples=200, deadline=None)
@given(envelopes())
def test_envelope_roundtrip_is_identity(env):
    assert decode_envelope(encode_envelope(env)) == env


@st.composite
def foreign_layouts(draw, n):
    """Entry indexes other than 0..n-1 in order: a permutation, or a
    duplicate of one index in place of another."""
    canonical = list(range(n))
    if draw(st.booleans()):
        return draw(st.permutations(canonical).filter(lambda p: p != canonical))
    src, dst = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    canonical[dst] = canonical[src]
    return canonical


@settings(max_examples=200, deadline=None)
@given(envelopes(), st.data())
def test_decode_rejects_permuted_or_duplicated_indexes(env, data):
    frame = bytearray(encode_envelope(env))
    n = len(env.values)
    entries = len(frame) - 9 * n
    for i, index in enumerate(data.draw(foreign_layouts(n))):
        frame[entries + 9 * i] = index
    with pytest.raises(EnvelopeDecodeError):
        decode_envelope(bytes(frame))


# ----------------------------------------------------------------------
# NDJSON row round trip
# ----------------------------------------------------------------------

def test_finite_floats_survive_store_query_and_dataset_bit_for_bit(tmp_path):
    examples = itertools.count()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=16))
    @example([-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1.7976931348623157e308])
    def check(floats):
        metrics = {f"m{i}": v for i, v in enumerate(floats)}
        expected = {k: struct.pack(">d", v) for k, v in metrics.items()}
        d = tmp_path / f"store-{next(examples)}"
        store = SegmentStore(d)
        store.append_many([Record("rt", "tb1", 0, "minimal14", metrics)])
        store.close()
        service = CollectorService(CollectorConfig(data_dir=d))  # reopens the store
        try:
            reply = service._handle_query_line("QUERY rt 0 0").decode().splitlines()
        finally:
            service.stop()
        assert reply[-1] == "END 1"
        values = json.loads(reply[0])["values"]
        assert {k: struct.pack(">d", v) for k, v in values.items()} == expected

        path = d / "rows.ndjson"
        write_ndjson([DatasetRow("tb1", "rt", 0, "normal", metrics)], path)
        (row,) = load_ndjson(path)
        assert {k: struct.pack(">d", v) for k, v in row.metrics.items()} == expected

    check()


# ----------------------------------------------------------------------
# simulator invariants over many random runs
# ----------------------------------------------------------------------

def test_conservation_and_capacity_over_1000_random_runs():
    rng = random.Random(777)
    for _ in range(1000):
        assert_conservation_and_capacity(random_run(rng))


@st.composite
def allocation_problems(draw):
    """Engine-shaped inputs: transfers cross five resources, competitor loads
    and congestion flows one each."""
    tb = draw(st.sampled_from(list(builtin_testbeds().values())))
    capacity_of = {
        "sender_ost": tb.per_ost_disk_read_bytes_per_s,
        "receiver_ost": tb.per_ost_disk_write_bytes_per_s,
        "sender_lnet": tb.lnet_nic_bytes_per_s,
        "receiver_lnet": tb.lnet_nic_bytes_per_s,
        "wan": tb.wan_bandwidth_bytes_per_s,
    }
    ost = st.integers(min_value=0, max_value=tb.oss_count_per_side - 1)
    demands = st.floats(min_value=0.0, max_value=1.2 * tb.unimpaired_rate)
    common = draw(demands)
    flows = [
        (
            f"t{i}",
            draw(st.one_of(st.just(common), demands)),
            (
                ("sender_ost", draw(ost)),
                ("sender_lnet", 0),
                ("wan", 0),
                ("receiver_lnet", 0),
                ("receiver_ost", draw(ost)),
            ),
        )
        for i in range(draw(st.integers(min_value=1, max_value=12)))
    ]
    for i in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(sorted(capacity_of)))
        index = draw(ost) if kind.endswith("_ost") else 0
        load = draw(st.floats(min_value=0.0, max_value=capacity_of[kind]))
        flows.append((("competitor", i), load, ((kind, index),)))
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        flows.append((("congestion", i), capacity_of["wan"], (("wan", 0),)))
    capacity = {key: capacity_of[key[0]] for _, _, keys in flows for key in keys}
    return capacity, flows


@settings(max_examples=300, deadline=None)
@given(allocation_problems())
def test_allocation_is_max_min_fair_and_work_conserving(problem):
    capacity, flows = problem
    rates = max_min_rates(capacity, flows)
    load = dict.fromkeys(capacity, 0.0)
    users = {key: [] for key in capacity}
    for fid, _, keys in flows:
        for key in keys:
            load[key] += rates[fid]
            users[key].append(rates[fid])
    for key, cap in capacity.items():
        assert load[key] <= cap * (1 + 1e-9), key
    for fid, demand, keys in flows:
        rate = rates[fid]
        assert 0.0 <= rate <= demand
        if rate == demand:
            continue
        assert any(
            load[key] >= capacity[key] * (1 - 1e-9) and max(users[key]) <= rate * (1 + 1e-9)
            for key in keys
        ), fid


def test_simulation_determinism_across_engines():
    rng = random.Random(31337)
    for _ in range(20):
        run = random_run(rng)
        snaps_a = [s.transfer_rates for s in Engine(run).run_all()]
        snaps_b = [s.transfer_rates for s in Engine(run).run_all()]
        assert snaps_a == snaps_b


# ----------------------------------------------------------------------
# classifier determinism and scale invariance
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def labeled_windows():
    tb = get_testbed("tb4")
    out = []
    for cls in (
        AnomalyClass.NORMAL,
        AnomalyClass.NETWORK_LOSS,
        AnomalyClass.NETWORK_CONGESTION,
        AnomalyClass.SENDER_OST_READ_CONGESTION,
        AnomalyClass.RECEIVER_CLIENT_WRITE_CONGESTION,
        AnomalyClass.SENDER_TCP_BUFFER_MISCONFIG,
    ):
        run, _ = build_run(tb, cls, 0, seed=55, duration_s=10)
        rows = [r.metrics for r in run_rows(run, cls)]
        out.append((cls, rows))
    normal_rows = [r for cls, rows in out if cls is AnomalyClass.NORMAL for r in rows]
    baseline = fit_baseline(normal_rows, tb.id)
    return baseline, out


BYTE_SCALED = [n for n in MINIMAL_NAMES if n.endswith("_bytes_per_s") or n.endswith("_bytes")]


def scale_row(row, c):
    return {k: (v * c if k in BYTE_SCALED else v) for k, v in row.items()}


def scale_baseline(base, c):
    from xfermon.diagnose import BaselineProfile

    return BaselineProfile(
        testbed_id=base.testbed_id,
        means={k: (v * c if k in BYTE_SCALED else v) for k, v in base.means.items()},
        stds={k: (v * c if k in BYTE_SCALED else v) for k, v in base.stds.items()},
        normal_rtt_us=base.normal_rtt_us,
        normal_throughput=base.normal_throughput * c,
        disk_read_max=base.disk_read_max * c,
        disk_write_max=base.disk_write_max * c,
        bdp_bytes=base.bdp_bytes * c,
        run_count=base.run_count,
        row_count=base.row_count,
    )


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_scale_invariance_of_diagnosis(labeled_windows, c):
    baseline, window_sets = labeled_windows
    scaled_base = scale_baseline(baseline, c)
    for cls, rows in window_sets:
        original = classify(rows, baseline)
        scaled = classify([scale_row(r, c) for r in rows], scaled_base)
        assert scaled.label is original.label
        assert scaled.fired_rule is original.fired_rule


def test_diagnosis_deterministic_incl_evidence(labeled_windows):
    baseline, window_sets = labeled_windows
    for cls, rows in window_sets:
        a = classify(rows, baseline, transfer_id="d", window_start=0)
        b = classify(rows, baseline, transfer_id="d", window_start=0)
        assert a == b
        assert a.evidence == b.evidence


def test_diagnoses_match_injected_classes(labeled_windows):
    baseline, window_sets = labeled_windows
    for cls, rows in window_sets:
        assert classify(rows, baseline).label is cls
