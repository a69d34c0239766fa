"""Baseline fitting, rule evaluation, normalization, centroid, and scoring."""
import hashlib
import operator
import random
from collections import Counter

import pytest

from xfermon.diagnose import (
    BaselineProfile,
    RULE_OPERANDS,
    RULES,
    RuleConfig,
    RuleId,
    centroid_fit,
    centroid_predict_many,
    classify,
    classify_run_windows,
    fit_baseline,
    fit_baseline_from_dataset,
    normalize_row,
    normalize_rows,
    score,
    unit_baseline,
)
from xfermon.diagnose.rules import MissingMetricError
from xfermon.metrics import MINIMAL_NAMES
from xfermon.sim import (
    LABEL_CLASSES,
    AnomalyClass,
    build_run,
    builtin_testbeds,
    generate_dataset,
    get_testbed,
    run_rows,
)


# ----------------------------------------------------------------------
# helpers: a hand-built nominal row and a fitted simulator baseline
# ----------------------------------------------------------------------

RATE = 4e8
RTT = 10_000.0
BUF = 8e6  # 2x the BDP of RATE x RTT


def nominal_row(**overrides):
    row = {
        "sender_ost_read_bytes_per_s": RATE,
        "sender_client_read_bytes_per_s": RATE,
        "sender_lnet_nic_rx_bytes_per_s": RATE,
        "sender_wan_nic_tx_bytes_per_s": RATE,
        "sender_tcp_send_buf_max_bytes": BUF,
        "sender_retransmitted_packets": 0.0,
        "sender_total_sent_packets": 50_000.0,
        "sender_rtt_us": RTT,
        "receiver_ost_write_bytes_per_s": RATE,
        "receiver_client_write_bytes_per_s": RATE,
        "receiver_lnet_nic_tx_bytes_per_s": RATE,
        "receiver_wan_nic_rx_bytes_per_s": RATE,
        "receiver_tcp_recv_buf_max_bytes": BUF,
        "transfer_throughput_bytes_per_s": RATE,
    }
    row.update(overrides)
    return row


@pytest.fixture(scope="module")
def flat_baseline():
    return fit_baseline([nominal_row() for _ in range(20)], "tb-x")


@pytest.fixture(scope="module")
def sim_dataset():
    tb = get_testbed("tb3")
    rows = []
    for cls in (AnomalyClass.NORMAL, AnomalyClass.NETWORK_LOSS,
                AnomalyClass.RECEIVER_OST_WRITE_CONGESTION):
        for i in range(3):
            run, _ = build_run(tb, cls, i, seed=31, duration_s=20)
            rows.extend(run_rows(run, cls))
    return tb, rows


# ----------------------------------------------------------------------
# fit_baseline
# ----------------------------------------------------------------------

def test_fit_constant_run_gives_exact_mean_and_zero_std(flat_baseline):
    assert flat_baseline.mean("transfer_throughput_bytes_per_s") == pytest.approx(RATE)
    assert flat_baseline.stds["transfer_throughput_bytes_per_s"] == pytest.approx(0.0)
    assert flat_baseline.normal_rtt_us == pytest.approx(RTT)
    assert flat_baseline.bdp_bytes == pytest.approx(RATE * RTT / 1e6)


def test_fit_rejects_empty_input():
    with pytest.raises(ValueError, match="no normal rows"):
        fit_baseline([], "tb-x")


def test_fitted_mean_matches_unimpaired_capacity():
    # the normal mean recovers the testbed's slowest-stage rate up to the
    # small one-sided efficiency jitter
    tb = get_testbed("tb5")
    run, _ = build_run(tb, AnomalyClass.NORMAL, 0, seed=4, duration_s=40)
    rows = run_rows(run, AnomalyClass.NORMAL)
    base = fit_baseline([r.metrics for r in rows], tb.id)
    assert base.normal_throughput == pytest.approx(tb.unimpaired_rate, rel=0.03)
    assert base.normal_throughput <= tb.unimpaired_rate


def test_disjoint_run_families_agree_within_5pct():
    tb = get_testbed("tb2")
    def family(indexes):
        rows = []
        for i in indexes:
            run, _ = build_run(tb, AnomalyClass.NORMAL, i, seed=8, duration_s=30)
            rows.extend(run_rows(run, AnomalyClass.NORMAL))
        return fit_baseline([r.metrics for r in rows], tb.id)

    a = family(range(0, 5))
    b = family(range(5, 10))
    for name in MINIMAL_NAMES:
        if name == "sender_retransmitted_packets":
            continue  # both identically zero under no loss
        assert a.mean(name) == pytest.approx(b.mean(name), rel=0.05)


def test_baseline_json_roundtrip(tmp_path, flat_baseline):
    p = tmp_path / "base.json"
    flat_baseline.save(p)
    again = BaselineProfile.load(p)
    assert again == flat_baseline


# ----------------------------------------------------------------------
# rule engine
# ----------------------------------------------------------------------

def window(row, n=10):
    return [dict(row) for _ in range(n)]


def test_all_nominal_falls_back_to_normal(flat_baseline):
    d = classify(window(nominal_row()), flat_baseline)
    assert d.label is AnomalyClass.NORMAL
    assert d.fired_rule is RuleId.NORMAL_FALLBACK
    assert d.evidence == {}


def test_retransmit_ratio_above_floor_is_loss(flat_baseline):
    row = nominal_row(
        sender_retransmitted_packets=100.0,  # ratio 0.002 > 0.0005
        sender_total_sent_packets=50_000.0,
        transfer_throughput_bytes_per_s=RATE * 0.6,
        sender_client_read_bytes_per_s=RATE * 0.6,
        receiver_client_write_bytes_per_s=RATE * 0.6,
        sender_ost_read_bytes_per_s=RATE * 0.6,
        receiver_ost_write_bytes_per_s=RATE * 0.6,
        sender_lnet_nic_rx_bytes_per_s=RATE * 0.6,
        receiver_lnet_nic_tx_bytes_per_s=RATE * 0.6,
        sender_wan_nic_tx_bytes_per_s=RATE * 0.6,
        receiver_wan_nic_rx_bytes_per_s=RATE * 0.6,
    )
    d = classify(window(row), flat_baseline)
    assert d.label is AnomalyClass.NETWORK_LOSS
    observed, threshold = d.evidence["retransmit_ratio"]
    assert observed == pytest.approx(0.002)
    assert threshold == 0.0005


def test_tiny_receiver_buffer_on_120kib_bdp_network():
    # fit a baseline describing a network whose BDP is 120 KiB, then present
    # a window with a 2 KiB receiver buffer
    bdp = 120 * 1024
    rtt_us = 10_000.0
    rate = bdp / (rtt_us / 1e6)
    base_row = nominal_row(
        transfer_throughput_bytes_per_s=rate,
        sender_client_read_bytes_per_s=rate,
        receiver_client_write_bytes_per_s=rate,
        sender_ost_read_bytes_per_s=rate,
        receiver_ost_write_bytes_per_s=rate,
        sender_lnet_nic_rx_bytes_per_s=rate,
        receiver_lnet_nic_tx_bytes_per_s=rate,
        sender_wan_nic_tx_bytes_per_s=rate,
        receiver_wan_nic_rx_bytes_per_s=rate,
        sender_rtt_us=rtt_us,
        sender_tcp_send_buf_max_bytes=2.0 * bdp,
        receiver_tcp_recv_buf_max_bytes=2.0 * bdp,
    )
    base = fit_baseline([base_row] * 10, "bdp-net")
    assert base.bdp_bytes == pytest.approx(bdp)

    degraded = dict(base_row)
    degraded["receiver_tcp_recv_buf_max_bytes"] = 2 * 1024.0
    for name in base_row:
        if name.endswith("bytes_per_s"):
            degraded[name] = rate / 60  # collapsed throughput
    d = classify(window(degraded), base)
    assert d.label is AnomalyClass.RECEIVER_TCP_BUFFER_MISCONFIG
    observed, threshold = d.evidence["receiver_tcp_recv_buf_max_bytes"]
    assert observed == pytest.approx(2048)
    assert threshold == pytest.approx(0.9 * bdp)


def test_sender_buffer_precedes_receiver_buffer(flat_baseline):
    row = nominal_row(
        sender_tcp_send_buf_max_bytes=1e5,
        receiver_tcp_recv_buf_max_bytes=1e5,
    )
    d = classify(window(row), flat_baseline)
    assert d.fired_rule is RuleId.SENDER_TCP_BUFFER


def test_congestion_needs_both_rtt_and_write_drop(flat_baseline):
    only_rtt = nominal_row(sender_rtt_us=RTT * 1.8)
    assert classify(window(only_rtt), flat_baseline).label is AnomalyClass.NORMAL

    both = nominal_row(
        sender_rtt_us=RTT * 1.8,
        receiver_client_write_bytes_per_s=RATE * 0.5,
        transfer_throughput_bytes_per_s=RATE * 0.5,
        sender_client_read_bytes_per_s=RATE * 0.5,
        sender_ost_read_bytes_per_s=RATE * 0.5,
        receiver_ost_write_bytes_per_s=RATE * 0.5,
        sender_lnet_nic_rx_bytes_per_s=RATE * 0.5,
        receiver_lnet_nic_tx_bytes_per_s=RATE * 0.5,
    )
    d = classify(window(both), flat_baseline)
    assert d.label is AnomalyClass.NETWORK_CONGESTION
    assert set(d.evidence) == {"sender_rtt_us", "receiver_client_write_bytes_per_s"}


def test_ost_gap_rules(flat_baseline):
    row = nominal_row(
        sender_ost_read_bytes_per_s=RATE,          # at the observed ceiling
        sender_client_read_bytes_per_s=RATE * 0.5,  # transfer holds half
        sender_lnet_nic_rx_bytes_per_s=RATE * 0.5,
        transfer_throughput_bytes_per_s=RATE * 0.5,
        receiver_client_write_bytes_per_s=RATE * 0.5,
        receiver_ost_write_bytes_per_s=RATE * 0.5,
        receiver_lnet_nic_tx_bytes_per_s=RATE * 0.5,
    )
    d = classify(window(row), flat_baseline)
    assert d.label is AnomalyClass.SENDER_OST_READ_CONGESTION


def test_client_nic_rules(flat_baseline):
    row = nominal_row(
        sender_client_read_bytes_per_s=RATE * 0.5,
        sender_ost_read_bytes_per_s=RATE * 0.5,
        sender_lnet_nic_rx_bytes_per_s=RATE * 2.0,  # NIC busier than normal
        transfer_throughput_bytes_per_s=RATE * 0.5,
        receiver_client_write_bytes_per_s=RATE * 0.5,
        receiver_ost_write_bytes_per_s=RATE * 0.5,
        receiver_lnet_nic_tx_bytes_per_s=RATE * 0.5,
    )
    d = classify(window(row), flat_baseline)
    assert d.label is AnomalyClass.SENDER_CLIENT_READ_CONGESTION


def test_missing_operand_names_the_key(flat_baseline):
    rows = window(nominal_row())
    for r in rows:
        del r["sender_rtt_us"]
    with pytest.raises(MissingMetricError, match="sender_rtt_us"):
        classify(rows, flat_baseline)


def test_short_window_rejected(flat_baseline):
    with pytest.raises(ValueError, match="window"):
        classify(window(nominal_row(), n=5), flat_baseline)


def test_rule_config_rejects_window_below_one():
    with pytest.raises(ValueError, match="window_s"):
        RuleConfig(window_s=0)


def test_rule_determinism(flat_baseline):
    rows = window(nominal_row(sender_rtt_us=RTT * 1.2))
    d1 = classify(rows, flat_baseline, transfer_id="t", window_start=0)
    d2 = classify(rows, flat_baseline, transfer_id="t", window_start=0)
    assert d1 == d2


def test_rule_table_is_complete():
    # Every rule appears once, the labels cover every class but normal once
    # each, and every clause compares a window mean (or the retransmit ratio).
    assert Counter(rule for rule, _, _ in RULES) == Counter(
        r for r in RuleId if r is not RuleId.NORMAL_FALLBACK
    )
    assert Counter([label for _, label, _ in RULES] + [AnomalyClass.NORMAL]) == Counter(
        LABEL_CLASSES
    )
    for _, _, clauses in RULES:
        assert clauses
        for quantity, holds, _ in clauses:
            assert quantity in RULE_OPERANDS or quantity == "retransmit_ratio"
            assert holds in (operator.lt, operator.gt, operator.ge)


def test_classify_run_windows_covers_run(sim_dataset):
    tb, rows = sim_dataset
    base = fit_baseline(
        [r.metrics for r in rows if r.label == "normal"], tb.id
    )
    one_run = sorted(
        (r for r in rows if r.label == "network_loss" and r.transfer_id.endswith("r000")),
        key=lambda r: r.t,
    )
    diags = classify_run_windows([r.metrics for r in one_run], base, transfer_id="x")
    assert len(diags) == 2  # 20 s run, 10 s windows
    assert all(d.label is AnomalyClass.NETWORK_LOSS for d in diags)


def test_diagnoses_are_unchanged():
    # Every Diagnosis.to_json() line, bit for bit: all 8 testbeds, one run per
    # class, raw rows against the fitted baseline and normalized rows against
    # the unit baseline, under the default and one non-default config.
    rows, _ = generate_dataset(builtin_testbeds().values(), runs_per_class=1, seed=2718)
    by_run = {}
    for r in rows:
        by_run.setdefault((r.testbed_id, r.transfer_id), []).append(r)
    configs = (
        RuleConfig(),
        RuleConfig(window_s=7, kappa_near=0.6, kappa_gap=0.95, rtt_factor=1.1),
    )
    baselines = {tb: fit_baseline_from_dataset(rows, tb) for tb, _ in by_run}
    digest = hashlib.sha256()
    count = 0
    for (tb, tid), rs in sorted(by_run.items()):
        rs.sort(key=lambda r: r.t)
        raw = [r.metrics for r in rs]
        base = baselines[tb]
        for data, b in ((raw, base), (normalize_rows(raw, base), unit_baseline(base))):
            for config in configs:
                for d in classify_run_windows(data, b, config, transfer_id=tid):
                    digest.update(d.to_json().encode() + b"\n")
                    count += 1
    assert (count, digest.hexdigest()) == (
        8 * 9 * 2 * (6 + 8),
        "994caa1f9d37ffd0c3471d47a0330b73304bf31a6a20143563ad177e3863f59d",
    )


# ----------------------------------------------------------------------
# normalization
# ----------------------------------------------------------------------

def test_normalize_normal_rows_are_unit(sim_dataset):
    tb, rows = sim_dataset
    normal = [r.metrics for r in rows if r.label == "normal"]
    base = fit_baseline(normal, tb.id)
    out = normalize_row(normal[0], base)
    # default buffers are two WAN bandwidth-delay products; the baseline BDP
    # estimate uses achieved throughput, hence the WAN/throughput factor
    buf_expect = 2.0 * tb.wan_bandwidth_bytes_per_s / tb.unimpaired_rate
    for name in MINIMAL_NAMES:
        if name in ("sender_retransmitted_packets",):
            assert out[name] == 0.0
        elif name.endswith("buf_max_bytes"):
            assert out[name] == pytest.approx(buf_expect, rel=0.1)
        else:
            assert out[name] == pytest.approx(1.0, rel=0.1)


def test_normalize_half_throughput_is_half(flat_baseline):
    row = nominal_row(transfer_throughput_bytes_per_s=RATE / 2)
    out = normalize_row(row, flat_baseline)
    assert out["transfer_throughput_bytes_per_s"] == pytest.approx(0.5)


def test_normalize_idempotence_with_refit(sim_dataset):
    tb, rows = sim_dataset
    normal = [r.metrics for r in rows if r.label == "normal"]
    base = fit_baseline(normal, tb.id)
    once = normalize_rows([r.metrics for r in rows], base)
    norm_normal = normalize_rows(normal, base)
    refit = fit_baseline(norm_normal, tb.id, rtt_to_seconds=1.0)
    twice = normalize_rows(once, refit)
    for a, b in zip(once, twice):
        for name in MINIMAL_NAMES:
            assert b[name] == pytest.approx(a[name], rel=1e-9, abs=1e-12)


def test_normalize_zero_mean_errors(flat_baseline):
    broken = BaselineProfile(
        testbed_id="z",
        means={**flat_baseline.means, "transfer_throughput_bytes_per_s": 0.0},
        stds=flat_baseline.stds,
        normal_rtt_us=flat_baseline.normal_rtt_us,
        normal_throughput=0.0,
        disk_read_max=flat_baseline.disk_read_max,
        disk_write_max=flat_baseline.disk_write_max,
        bdp_bytes=flat_baseline.bdp_bytes,
    )
    with pytest.raises(ValueError, match="cannot normalize"):
        normalize_row(nominal_row(), broken)


def test_argmax_invariance_raw_vs_normalized(sim_dataset):
    # classifying raw rows with the raw baseline equals classifying
    # normalized rows with the unit baseline, window by window
    tb, rows = sim_dataset
    base = fit_baseline([r.metrics for r in rows if r.label == "normal"], tb.id)
    ubase = unit_baseline(base)
    by_run = {}
    for r in rows:
        by_run.setdefault(r.transfer_id, []).append(r)
    for tid, rs in by_run.items():
        rs.sort(key=lambda r: r.t)
        raw = [r.metrics for r in rs]
        norm = normalize_rows(raw, base)
        d_raw = classify_run_windows(raw, base, transfer_id=tid)
        d_norm = classify_run_windows(norm, ubase, transfer_id=tid)
        assert [d.label for d in d_raw] == [d.label for d in d_norm]


# ----------------------------------------------------------------------
# centroid
# ----------------------------------------------------------------------

def test_centroid_memorizes_well_separated_classes():
    rng = random.Random(5)
    rows, labels = [], []
    for label, scale in (("normal", 1.0), ("network_loss", 0.4)):
        for _ in range(40):
            row = nominal_row()
            for k in row:
                if k.endswith("bytes_per_s"):
                    row[k] *= scale * rng.uniform(0.98, 1.02)
            if label == "network_loss":
                row["sender_retransmitted_packets"] = 200.0
            rows.append(row)
            labels.append(label)
    model = centroid_fit(rows, labels, normalized=False)
    preds = centroid_predict_many(model, rows)
    assert score(preds, labels).macro_f1 == 1.0
    assert centroid_predict_many(model, [rows[0]])[0] == "normal"


def test_centroid_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        centroid_fit([nominal_row()], [])


def test_centroid_tie_breaks_by_class_order():
    # two identical centroids: the earlier class in the label space wins
    row = nominal_row()
    model = centroid_fit(
        [dict(row), dict(row)], ["network_loss", "normal"], normalized=False
    )
    assert centroid_predict_many(model, [row])[0] == "normal"  # normal precedes loss


# ----------------------------------------------------------------------
# scoring
# ----------------------------------------------------------------------

def test_score_all_correct():
    labels = ["normal", "network_loss", "network_congestion"]
    rep = score(labels, labels)
    assert rep.macro_f1 == 1.0
    assert all(c.f1 == 1.0 for c in rep.per_class.values())


def test_score_harmonic_mean_formula():
    # precision 1.0, recall 0.5 -> F1 = 2/3
    truths = ["network_loss", "network_loss", "normal", "normal"]
    preds = ["network_loss", "normal", "normal", "normal"]
    rep = score(preds, truths)
    cs = rep.per_class["network_loss"]
    assert cs.precision == 1.0
    assert cs.recall == 0.5
    assert cs.f1 == pytest.approx(2 / 3)


def test_score_zero_when_never_predicted():
    truths = ["network_loss", "network_loss"]
    preds = ["normal", "normal"]
    rep = score(preds, truths)
    assert rep.per_class["network_loss"].f1 == 0.0


def test_score_rejects_length_mismatch():
    with pytest.raises(ValueError):
        score(["normal"], [])


def test_score_matches_brute_force_oracle_on_random_matrices():
    from xfermon.diagnose import LABEL_SPACE

    rng = random.Random(17)
    for _ in range(100):
        classes = rng.sample(LABEL_SPACE, rng.randint(2, len(LABEL_SPACE)))
        preds, truths = [], []
        for t in classes:
            for p in classes:
                n = rng.randint(0, 6)
                preds.extend([p] * n)
                truths.extend([t] * n)
        if not truths:
            continue
        order = list(range(len(truths)))
        rng.shuffle(order)
        preds = [preds[i] for i in order]
        truths = [truths[i] for i in order]
        rep = score(preds, truths)

        # independent counting oracle straight off the pair list
        f1s = []
        for c in classes:
            tp = sum(1 for p, t in zip(preds, truths) if p == c and t == c)
            fp = sum(1 for p, t in zip(preds, truths) if p == c and t != c)
            fn = sum(1 for p, t in zip(preds, truths) if p != c and t == c)
            if tp + fn == 0:
                continue
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn)
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            assert rep.per_class[c].precision == pytest.approx(prec)
            assert rep.per_class[c].recall == pytest.approx(rec)
            assert rep.per_class[c].f1 == pytest.approx(f1)
            f1s.append(f1)
        assert rep.macro_f1 == pytest.approx(sum(f1s) / len(f1s))


def test_confusion_row_sums_equal_support():
    truths = ["normal"] * 5 + ["network_loss"] * 3
    preds = ["normal", "normal", "network_loss", "normal", "normal",
             "network_loss", "normal", "network_loss"]
    rep = score(preds, truths)
    for label, row in rep.confusion.items():
        assert sum(row.values()) == rep.per_class[label].support
