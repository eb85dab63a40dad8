"""Transformer block tests.

The joint attention path is checked against a loop-based reference that
builds the concatenated key/value set by hand and runs per-row softmax in
plain Python; rotary embeddings are checked via the relative-position
property on a position grid.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowfx
from flowfx.errors import DomainError
from flowfx.transformer import (
    MODALITIES,
    ModalitySequence,
    MultiStreamParams,
    init_multistream,
    masked_attention,
    multistream_block,
    positions_from_indices,
    rope_apply,
    rope_frequencies,
)


def _seq(rng, modality, n, d, rate_hz=None, validity=None):
    if rate_hz is None:
        pos = np.arange(n, dtype=np.float64)  # text-style integer index
    else:
        pos = positions_from_indices(n, rate_hz)
    return ModalitySequence(rng.standard_normal((n, d)), modality, pos, validity)


def _three_seqs(rng, d, n=4, video_validity=None):
    return [
        _seq(rng, "text", n, d),
        _seq(rng, "video", n, d, rate_hz=24.0, validity=video_validity),
        _seq(rng, "audio", n, d, rate_hz=100.0),
    ]


class TestRope:
    def test_zero_position_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4, 8))
        out = rope_apply(x, np.zeros(4))
        assert np.array_equal(out, x)

    def test_norms_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 10))
        pos = np.sort(rng.uniform(0.0, 5.0, 6))
        out = rope_apply(x, pos, rope_dims=6)
        assert np.allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-12
        )

    def test_inner_product_depends_only_on_position_difference(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((1, 8))
        k = rng.standard_normal((1, 8))
        grid = [0.0, 0.3, 0.7, 1.1, 2.5]
        for p1 in grid:
            for p2 in grid:
                lhs = float(
                    rope_apply(q, np.array([p1]))[0] @ rope_apply(k, np.array([p2]))[0]
                )
                rhs = float(rope_apply(q, np.array([p1 - p2]))[0] @ k[0])
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_partial_rotation_leaves_tail_untouched(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 12))
        out = rope_apply(x, np.linspace(0, 1, 5), rope_dims=4)
        assert np.array_equal(out[:, 4:], x[:, 4:])
        assert not np.array_equal(out[:, :4], x[:, :4])

    def test_equal_wall_clock_equal_phase_across_rates(self):
        # audio frame 50 at 100 Hz and video frame 12 at 24 Hz are both 0.5 s.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 8))
        a = rope_apply(x, positions_from_indices(51, 100.0)[50:])
        v = rope_apply(x, positions_from_indices(13, 24.0)[12:])
        assert np.array_equal(a, v)

    def test_frequencies_are_geometric_from_one(self):
        th = rope_frequencies(8)
        assert th[0] == 1.0
        ratios = th[1:] / th[:-1]
        assert np.allclose(ratios, 10000.0 ** (-2.0 / 8.0), atol=1e-15)

    def test_bad_geometry_rejected(self):
        x = np.zeros((2, 8))
        with pytest.raises(DomainError):
            rope_apply(x, np.zeros(2), rope_dims=3)
        with pytest.raises(DomainError):
            rope_apply(x, np.zeros(2), rope_dims=10)
        with pytest.raises(DomainError):
            rope_apply(x, np.zeros(3))


class TestModalitySequence:
    def test_decreasing_positions_rejected(self):
        with pytest.raises(DomainError):
            ModalitySequence(np.zeros((3, 2)), "audio", np.array([0.0, 0.2, 0.1]))

    def test_invalid_rows_forced_to_null_embedding(self):
        tokens = np.ones((3, 2))
        seq = ModalitySequence(
            tokens, "video", np.arange(3.0), np.array([True, False, True])
        )
        assert np.array_equal(seq.tokens[1], np.zeros(2))
        assert np.array_equal(seq.tokens[0], np.ones(2))

    def test_unknown_modality_rejected(self):
        with pytest.raises(DomainError):
            ModalitySequence(np.zeros((2, 2)), "smell", np.arange(2.0))

    def test_shape_mismatches_rejected(self):
        with pytest.raises(DomainError):
            ModalitySequence(np.zeros((2, 2)), "text", np.arange(3.0))
        with pytest.raises(DomainError):
            ModalitySequence(
                np.zeros((2, 2)), "text", np.arange(2.0), np.array([True])
            )
        with pytest.raises(DomainError):
            ModalitySequence(np.zeros(4), "text", np.arange(4.0))

    def test_positions_from_indices(self):
        pos = positions_from_indices(3, 24.0)
        assert np.array_equal(pos, np.array([0.0, 1.0, 2.0]) / 24.0)
        with pytest.raises(DomainError):
            positions_from_indices(3, 0.0)


def _oracle_block(seqs, p):
    """Loop-based multistream reference: explicit joint K/V concatenation,
    per-row python softmax, manual layer norm and FFN."""
    n_heads, d = p.n_heads, p.dim
    d_h = d // n_heads
    proj = []
    for s in seqs:
        q = s.tokens @ p.wq[s.modality]
        k = s.tokens @ p.wk[s.modality]
        v = s.tokens @ p.wv[s.modality]
        heads = []
        for h in range(n_heads):
            sl = slice(h * d_h, (h + 1) * d_h)
            heads.append(
                (
                    rope_apply(q[:, sl], s.positions, p.rope_dims),
                    rope_apply(k[:, sl], s.positions, p.rope_dims),
                    v[:, sl],
                )
            )
        proj.append(heads)
    valid = np.concatenate([s.validity for s in seqs])
    keys = [
        np.concatenate([proj[m][h][1] for m in range(len(seqs))], axis=0)
        for h in range(n_heads)
    ]
    vals = [
        np.concatenate([proj[m][h][2] for m in range(len(seqs))], axis=0)
        for h in range(n_heads)
    ]
    outs = []
    for mi, s in enumerate(seqs):
        z = np.zeros((s.length, d))
        for h in range(n_heads):
            qh = proj[mi][h][0]
            for i in range(s.length):
                logits = [
                    float(qh[i] @ keys[h][j]) / math.sqrt(d_h)
                    for j in range(len(valid))
                ]
                peak = max(l for l, ok in zip(logits, valid) if ok)
                ws = [
                    math.exp(l - peak) if ok else 0.0 for l, ok in zip(logits, valid)
                ]
                total = sum(ws)
                row = sum((wj / total) * vals[h][j] for j, wj in enumerate(ws))
                z[i, h * d_h : (h + 1) * d_h] = row
        res = s.tokens + z @ p.wo
        mean = res.mean(axis=1, keepdims=True)
        var = ((res - mean) ** 2).mean(axis=1, keepdims=True)
        ln = (res - mean) / np.sqrt(var + 1e-5)
        pre = ln @ p.ffn_w1[s.modality] + p.ffn_b1[s.modality]
        act = pre / (1.0 + np.exp(-pre))
        y = res + act @ p.ffn_w2[s.modality] + p.ffn_b2[s.modality]
        outs.append(np.where(s.validity[:, None], y, 0.0))
    return outs


class TestJointAttentionOracle:
    def test_matches_brute_force_on_three_modalities(self):
        d = 8
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            validity = None
            if trial % 2 == 1:  # half the trials mask some video tokens
                validity = rng.uniform(size=4) > 0.4
                if not validity.any():
                    validity[0] = True
            seqs = _three_seqs(rng, d, n=4, video_validity=validity)
            params = init_multistream(rng, d, 16, n_heads=2, rope_dims=4)
            got = multistream_block(seqs, params)
            want = _oracle_block(seqs, params)
            for g, w in zip(got, want):
                assert np.allclose(g.tokens, w, atol=1e-10), trial

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(200)
        validity = np.array([True, False, True, False])
        seqs = _three_seqs(rng, 8, video_validity=validity)
        params = init_multistream(rng, 8, 16, n_heads=2, rope_dims=4)
        _, weights = multistream_block(seqs, params, return_weights=True)
        for w in weights:
            assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-12)

    def test_masked_keys_get_exactly_zero_weight(self):
        rng = np.random.default_rng(201)
        validity = np.array([False, True, False, True])
        seqs = _three_seqs(rng, 8, video_validity=validity)
        params = init_multistream(rng, 8, 16, n_heads=2, rope_dims=4)
        _, weights = multistream_block(seqs, params, return_weights=True)
        valid_all = np.concatenate([s.validity for s in seqs])
        for w in weights:
            assert np.all(w[:, :, ~valid_all] == 0.0)

    def test_all_masked_keys_yield_zero_rows(self):
        rng = np.random.default_rng(202)
        q = rng.standard_normal((2, 3, 4))
        k = rng.standard_normal((2, 5, 4))
        v = rng.standard_normal((2, 5, 4))
        z, w = masked_attention(q, k, v, np.zeros(5, dtype=bool))
        assert np.array_equal(z, np.zeros_like(z))
        assert np.array_equal(w, np.zeros_like(w))

    def test_attention_output_is_convex_combination_of_values(self):
        rng = np.random.default_rng(203)
        q = rng.standard_normal((2, 6, 4))
        k = rng.standard_normal((2, 5, 4))
        v = rng.standard_normal((2, 5, 4))
        z, _ = masked_attention(q, k, v, np.ones(5, dtype=bool))
        assert np.max(np.linalg.norm(z, axis=-1)) <= np.max(
            np.linalg.norm(v, axis=-1)
        ) + 1e-12


class TestMultiStream:
    def test_zero_projection_and_ffn_is_pure_residual(self):
        rng = np.random.default_rng(300)
        seqs = _three_seqs(rng, 8)
        params = init_multistream(rng, 8, 16, n_heads=2, rope_dims=4)
        params.wo = np.zeros((8, 8))
        for m in params.modalities:
            params.ffn_w2[m] = np.zeros((16, 8))
            params.ffn_b2[m] = np.zeros(8)
        out = multistream_block(seqs, params)
        for o, s in zip(out, seqs):
            assert np.array_equal(o.tokens, s.tokens)

    def test_fully_masked_video_reduces_to_two_modality_joint_block(self):
        rng = np.random.default_rng(301)
        seqs3 = _three_seqs(rng, 8, video_validity=np.zeros(4, dtype=bool))
        p3 = init_multistream(rng, 8, 16, n_heads=2, rope_dims=4)
        p2 = MultiStreamParams(
            ("text", "audio"),
            {m: p3.wq[m] for m in ("text", "audio")},
            {m: p3.wk[m] for m in ("text", "audio")},
            {m: p3.wv[m] for m in ("text", "audio")},
            p3.wo,
            {m: p3.ffn_w1[m] for m in ("text", "audio")},
            {m: p3.ffn_b1[m] for m in ("text", "audio")},
            {m: p3.ffn_w2[m] for m in ("text", "audio")},
            {m: p3.ffn_b2[m] for m in ("text", "audio")},
            p3.n_heads,
            p3.rope_dims,
        )
        out3 = multistream_block(seqs3, p3)
        out2 = multistream_block([seqs3[0], seqs3[2]], p2)
        assert np.allclose(out3[0].tokens, out2[0].tokens, atol=1e-12)
        assert np.allclose(out3[2].tokens, out2[1].tokens, atol=1e-12)
        assert np.array_equal(out3[1].tokens, np.zeros((4, 8)))

    def test_equivariance_under_swap_of_equal_position_tokens(self):
        # Tokens 1 and 2 share a timestamp, so swapping them (positions travel
        # along) must swap their outputs and leave other modalities unchanged.
        rng = np.random.default_rng(305)
        d = 8
        tok = rng.standard_normal((4, d))
        pos = np.array([0.0, 0.01, 0.01, 0.02])
        base_audio = ModalitySequence(tok, "audio", pos)
        perm = np.array([0, 2, 1, 3])
        swapped_audio = ModalitySequence(tok[perm], "audio", pos)
        text = _seq(rng, "text", 3, d)
        video = _seq(rng, "video", 3, d, rate_hz=24.0)
        params = init_multistream(rng, d, 16, n_heads=2, rope_dims=4)
        out_a = multistream_block([text, video, base_audio], params)
        out_b = multistream_block([text, video, swapped_audio], params)
        assert np.allclose(out_b[2].tokens, out_a[2].tokens[perm], atol=1e-12)
        assert np.allclose(out_b[0].tokens, out_a[0].tokens, atol=1e-12)
        assert np.allclose(out_b[1].tokens, out_a[1].tokens, atol=1e-12)

    def test_modality_and_dim_mismatches_rejected(self):
        rng = np.random.default_rng(306)
        seqs = _three_seqs(rng, 8)
        params = init_multistream(rng, 8, 16, n_heads=2, rope_dims=4)
        with pytest.raises(DomainError):
            multistream_block([seqs[0], seqs[2], seqs[1]], params)
        bad = _three_seqs(rng, 6)
        with pytest.raises(DomainError):
            multistream_block(bad, params)


class TestStack:
    def test_production_block_stack_runs_at_reduced_width(self):
        # Six multi-stream blocks, as in the full model, at narrow dims.
        rng = np.random.default_rng(600)
        d, d_ffn = 32, 64
        seqs = [
            _seq(rng, "text", 3, d),
            _seq(rng, "video", 5, d, rate_hz=24.0,
                 validity=np.array([True, True, False, True, False])),
            _seq(rng, "audio", 8, d, rate_hz=100.0),
        ]
        multi = [init_multistream(rng, d, d_ffn, n_heads=2, rope_dims=14) for _ in range(6)]
        for p in multi:
            seqs = multistream_block(seqs, p)
            assert np.array_equal(seqs[1].tokens[~seqs[1].validity], np.zeros((2, d)))
        assert [s.tokens.shape for s in seqs] == [(3, d), (5, d), (8, d)]
        assert all(np.all(np.isfinite(s.tokens)) for s in seqs)


def test_import_loads_no_scipy_special():
    # the FFN's SiLU is net's logistic, so the module needs numpy only
    src = str(Path(flowfx.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, flowfx.transformer; "
         "print('scipy.special' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
