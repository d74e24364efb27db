"""Compact frames are replay-deterministic through every data path.

Entries cross the wire and the WAL as compact frames (see DESIGN.md
§13); a chaos campaign must replay to a byte-identical recovery trace
per seed whether the space is single, sharded, or pipelined.
"""

from __future__ import annotations

from repro.experiments.chaos import verify_chaos_determinism


def test_codec_chaos_campaign_is_seed_deterministic():
    assert verify_chaos_determinism(seed=42)


def test_codec_sharded_campaign_is_seed_deterministic():
    assert verify_chaos_determinism(seed=42, shards=4)


def test_codec_pipelined_campaign_is_seed_deterministic():
    assert verify_chaos_determinism(seed=23, prefetch=4)
