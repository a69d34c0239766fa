"""Catalog and envelope contract tests."""
import hashlib
import os
import random
import subprocess
import sys

import pytest

from xfermon.metrics import (
    FULL_NAMES,
    MINIMAL_NAMES,
    PAYLOAD_LIMIT_BYTES,
    MetricEnvelope,
    Profile,
    catalog,
    catalog_names,
    decode_envelope,
    encode_envelope,
    validate_envelope,
)
from xfermon.diagnose.rules import RULE_OPERANDS


def make_envelope(profile=Profile.MINIMAL14, rng=None, transfer_id="t-001", t=7):
    """A random valid envelope; consistent across the coupled invariants."""
    rng = rng or random.Random(0)
    values = {}
    rate = rng.uniform(1e6, 2e9)
    for name in catalog(profile):
        if name.name.endswith("_bytes_per_s"):
            values[name.name] = rng.uniform(0, 2e9)
        elif name.unit == "percent":
            values[name.name] = rng.uniform(0, 100)
        elif name.unit == "us":
            values[name.name] = rng.uniform(100, 1e6)
        else:
            values[name.name] = rng.uniform(0, 1e7)
    # couple the invariant-bound fields
    values["transfer_throughput_bytes_per_s"] = rate
    values["sender_client_read_bytes_per_s"] = rate * 1.01
    values["receiver_client_write_bytes_per_s"] = rate * 1.02
    total = rng.uniform(1e4, 1e6)
    values["sender_total_sent_packets"] = total
    values["sender_retransmitted_packets"] = total * rng.uniform(0, 0.05)
    values["sender_rtt_us"] = rng.uniform(500, 100_000)
    return MetricEnvelope(
        transfer_id=transfer_id,
        testbed_id="tb1",
        timestamp=t,
        profile=profile,
        values=values,
    )


def test_catalog_counts():
    assert len(catalog(Profile.FULL142)) == 142
    assert len(catalog(Profile.MINIMAL14)) == 14


def test_minimal_subset_of_full():
    assert set(MINIMAL_NAMES) <= set(FULL_NAMES)


def test_minimal_keys_lead_the_full_catalog():
    # shared index space: minimal keys are positions 0..13
    assert FULL_NAMES[:14] == MINIMAL_NAMES


def test_every_rule_operand_in_minimal_profile():
    assert set(RULE_OPERANDS) <= set(MINIMAL_NAMES)


def test_catalog_order_stable_across_processes():
    code = (
        "from xfermon.metrics import FULL_NAMES; "
        "import hashlib; print(hashlib.sha256('|'.join(FULL_NAMES).encode()).hexdigest())"
    )
    # The child imports the same xfermon as this process, installed or not.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    digests = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        ).stdout.strip()
        for _ in range(2)
    }
    assert len(digests) == 1


def test_roundtrip_identity():
    for profile in Profile:
        env = make_envelope(profile)
        again = decode_envelope(encode_envelope(env))
        assert again == env


@pytest.mark.parametrize(
    "profile, size, sha256",
    [
        (Profile.MINIMAL14, 155, "1a9432c3fc74ef09649fafe7016c5c77984821daaff1c026a9ab5c50daa9fc27"),
        (Profile.FULL142, 1307, "d798ccbcf0c71d3063d3278ea304edb45d21a0dc2c7d36be6687a50a3872279b"),
    ],
    ids=["minimal14", "full142"],
)
def test_wire_bytes_are_unchanged(profile, size, sha256):
    # Digests of the bytes that encoding version 1 has always produced.
    names = catalog_names(profile)
    env = MetricEnvelope(
        "golden-xfer-0001", "tb2", 4242, profile, {n: i * 1e6 + 0.5 for i, n in enumerate(names)}
    )
    wire = encode_envelope(env)
    assert (len(wire), hashlib.sha256(wire).hexdigest()) == (size, sha256)
    assert decode_envelope(wire) == env


def test_validate_ok_envelope():
    assert validate_envelope(make_envelope()) == []
    assert validate_envelope(make_envelope(Profile.FULL142)) == []


def test_validate_missing_key():
    env = make_envelope()
    values = dict(env.values)
    del values["sender_rtt_us"]
    bad = MetricEnvelope(env.transfer_id, env.testbed_id, env.timestamp, env.profile, values)
    codes = {v.code for v in validate_envelope(bad)}
    assert "missing-key" in codes


def test_validate_extra_key():
    env = make_envelope()
    values = dict(env.values)
    values["made_up_metric"] = 1.0
    bad = MetricEnvelope(env.transfer_id, env.testbed_id, env.timestamp, env.profile, values)
    assert "extra-key" in {v.code for v in validate_envelope(bad)}


def test_validate_negative_counter():
    env = make_envelope()
    values = dict(env.values)
    values["sender_wan_nic_tx_bytes_per_s"] = -1.0
    bad = MetricEnvelope(env.transfer_id, env.testbed_id, env.timestamp, env.profile, values)
    assert "negative-value" in {v.code for v in validate_envelope(bad)}


def test_validate_accepts_finite_values_whose_sum_overflows():
    env = make_envelope(Profile.FULL142)
    values = dict(env.values)
    values["sender_tcp_send_buf_max_bytes"] = 1.7e308
    values["receiver_tcp_recv_buf_max_bytes"] = 1.7e308
    big = MetricEnvelope(env.transfer_id, env.testbed_id, env.timestamp, env.profile, values)
    assert validate_envelope(big) == []


def test_validate_retransmits_exceed_sent():
    env = make_envelope()
    values = dict(env.values)
    values["sender_retransmitted_packets"] = 10.0
    values["sender_total_sent_packets"] = 5.0
    bad = MetricEnvelope(env.transfer_id, env.testbed_id, env.timestamp, env.profile, values)
    assert "retransmit-exceeds-sent" in {v.code for v in validate_envelope(bad)}


def test_validate_rtt_strictly_positive():
    env = make_envelope()
    values = dict(env.values)
    values["sender_rtt_us"] = 0.0
    bad = MetricEnvelope(env.transfer_id, env.testbed_id, env.timestamp, env.profile, values)
    assert "rtt-nonpositive" in {v.code for v in validate_envelope(bad)}


def test_validate_throughput_above_client_path():
    env = make_envelope()
    values = dict(env.values)
    values["transfer_throughput_bytes_per_s"] = 2e9
    values["sender_client_read_bytes_per_s"] = 1e9
    values["receiver_client_write_bytes_per_s"] = 1e9
    bad = MetricEnvelope(env.transfer_id, env.testbed_id, env.timestamp, env.profile, values)
    assert "throughput-exceeds-path" in {v.code for v in validate_envelope(bad)}


@pytest.mark.parametrize("profile", list(Profile))
def test_size_bounds_over_random_envelopes(profile):
    rng = random.Random(1234)
    limit = PAYLOAD_LIMIT_BYTES[profile]
    for i in range(10_000):
        env = make_envelope(profile, rng, transfer_id=f"tb{i % 8}-xfer-{i:05d}", t=i % 3600)
        assert len(encode_envelope(env)) <= limit


def test_decode_rejects_garbage():
    from xfermon.metrics import EnvelopeDecodeError

    with pytest.raises(EnvelopeDecodeError):
        decode_envelope(b"\x01\x01\x00\x00")
    with pytest.raises(EnvelopeDecodeError):
        decode_envelope(b"")
    good = encode_envelope(make_envelope())
    with pytest.raises(EnvelopeDecodeError):
        decode_envelope(good[:-3])
    with pytest.raises(EnvelopeDecodeError):
        decode_envelope(good + b"\x00")
    with pytest.raises(EnvelopeDecodeError):
        decode_envelope(good[:1] + b"\x02" + good[2:])  # unknown profile id
