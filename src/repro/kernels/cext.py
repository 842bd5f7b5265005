"""Runtime-compiled C backend for the pattern-search sweeps and MC.

The pattern searches (DIA/HEX/UMH) are *sequentially* dependent per block:
each candidate offset is evaluated against the block's current best, which
the previous offset may just have updated.  NumPy can only batch across
blocks per offset — hundreds of small fancy-indexed gathers per frame —
while C walks each block's whole descent in one cache-resident loop.

Bit-exactness is engineered, then verified:

- SAD reductions replicate NumPy's pairwise summation exactly (8-way
  unrolled 128-element blocks, recursive halving above; the same algorithm
  ``ndarray.sum`` applies to each contiguous 256-element block row).
- MV bit costs use integer bit-length (``63 - clzll``) — exactly
  ``floor(log2(2|v| + 1))`` for the small odd integers involved.
- Motion compensation orders every multiply/add exactly as the reference's
  vectorised expression, and the source is compiled with
  ``-ffp-contract=off`` so no FMA contraction can change a rounding.
- At activation a self-probe runs every C kernel against the codec
  reference on adversarial random inputs; any mismatch marks the backend
  unavailable (the registry then falls back to the reference).

The shared object is compiled once per source hash into a per-user cache
directory with the system ``cc``/``gcc``; hosts without a C compiler simply
report the backend unavailable.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.kernels import KernelBackend

__all__ = ["CExtBackend"]

_C_SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* NumPy's pairwise summation (scalar form): n<8 naive, n<=128 8-way
 * unrolled with the ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) combine, larger n
 * recursively halved to a multiple of 8.  Bit-identical to
 * ndarray.sum over a contiguous double row (verified by self-probe). */
static double pairwise(const double *a, size_t n) {
    if (n < 8) {
        double res = 0.0;
        for (size_t i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        size_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i + 0]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
            r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) res += a[i];
        return res;
    }
    size_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

void pairwise_rows(const double *a, int64_t rows, int64_t n, double *out) {
    for (int64_t r = 0; r < rows; r++) out[r] = pairwise(a + (size_t)r * n, (size_t)n);
}

/* |cur - ref| over one block, then the NumPy-pairwise reduction.  The
 * scratch buffer makes the reduction read a contiguous row exactly like
 * the evaluator's (m, b, b) difference buffer. */
static double sad_block(const double *cur, const double *refp, int64_t ref_stride,
                        int64_t block, double *scratch) {
    int64_t k = 0;
    for (int64_t i = 0; i < block; i++) {
        const double *r = refp + i * ref_stride;
        const double *c = cur + i * block;
        for (int64_t j = 0; j < block; j++) scratch[k++] = fabs(c[j] - r[j]);
    }
    return pairwise(scratch, (size_t)(block * block));
}

/* floor(log2(2|v| + 1)) for small integers: the bit length of the odd
 * integer 2|v|+1, minus one.  Exact — no transcendental involved. */
static double mv_bits(int64_t dx, int64_t dy, int64_t px, int64_t py) {
    uint64_t tx = 2ull * (uint64_t)llabs(dx - px) + 1ull;
    uint64_t ty = 2ull * (uint64_t)llabs(dy - py) + 1ull;
    int ex = 63 - __builtin_clzll(tx);
    int ey = 63 - __builtin_clzll(ty);
    return 2.0 + 2.0 * ((double)ex + (double)ey);
}

/* Pattern descent for every block: candidate offsets relative to the
 * block's current MV, immediate accept on cand < cost - 1e-9, repeat until
 * a full pattern sweep improves nothing (or max_iter).  Identical
 * per-block semantics to the reference's batched active-set loop — blocks
 * are independent, so iterating block-major is a pure reordering. */
void descend(const double *cur_blocks, const double *ref_pad, int64_t rp_stride,
             const int64_t *by, const int64_t *bx, int64_t pad, int64_t n,
             int64_t block, const int64_t *pattern, int64_t npat,
             int64_t *dx, int64_t *dy, double *cost,
             const int64_t *pred_x, const int64_t *pred_y,
             double lambda_mv, int64_t rng, int64_t max_iter, double *scratch) {
    for (int64_t b = 0; b < n; b++) {
        const double *cur = cur_blocks + b * block * block;
        int64_t bdx = dx[b], bdy = dy[b];
        double bcost = cost[b];
        int64_t px = pred_x[b], py = pred_y[b];
        for (int64_t it = 0; it < max_iter; it++) {
            int improved = 0;
            for (int64_t p = 0; p < npat; p++) {
                int64_t cx = bdx + pattern[2 * p];
                int64_t cy = bdy + pattern[2 * p + 1];
                if (cx < -rng || cx > rng || cy < -rng || cy > rng) continue;
                const double *r =
                    ref_pad + (pad + by[b] - cy) * rp_stride + (pad + bx[b] - cx);
                double sad = sad_block(cur, r, rp_stride, block, scratch);
                double cand = sad + lambda_mv * mv_bits(cx, cy, px, py);
                if (cand < bcost - 1e-9) {
                    bdx = cx; bdy = cy; bcost = cand; improved = 1;
                }
            }
            if (!improved) break;
        }
        dx[b] = bdx; dy[b] = bdy; cost[b] = bcost;
    }
}

/* One pass of absolute candidates (the HEX/UMH seeding grid) for the
 * blocks in idx, against the zero predictor.  Offsets are pre-clipped by
 * construction (the grid never leaves the search window). */
void sweep_abs(const double *cur_blocks, const double *ref_pad, int64_t rp_stride,
               const int64_t *by, const int64_t *bx, int64_t pad,
               const int64_t *idx, int64_t m, int64_t block,
               const int64_t *offs, int64_t noffs,
               int64_t *dx, int64_t *dy, double *cost,
               double lambda_mv, double *scratch) {
    for (int64_t k = 0; k < m; k++) {
        int64_t b = idx[k];
        const double *cur = cur_blocks + b * block * block;
        int64_t bdx = dx[b], bdy = dy[b];
        double bcost = cost[b];
        for (int64_t p = 0; p < noffs; p++) {
            int64_t cx = offs[2 * p], cy = offs[2 * p + 1];
            const double *r =
                ref_pad + (pad + by[b] - cy) * rp_stride + (pad + bx[b] - cx);
            double sad = sad_block(cur, r, rp_stride, block, scratch);
            double cand = sad + lambda_mv * mv_bits(cx, cy, 0, 0);
            if (cand < bcost - 1e-9) { bdx = cx; bdy = cy; bcost = cand; }
        }
        dx[b] = bdx; dy[b] = bdy; cost[b] = bcost;
    }
}

/* One pass of relative offsets, clipped into the window before both the
 * SAD and the bit cost (UMH cross/multi-hexagon semantics). */
void sweep_rel_clip(const double *cur_blocks, const double *ref_pad, int64_t rp_stride,
                    const int64_t *by, const int64_t *bx, int64_t pad,
                    const int64_t *idx, int64_t m, int64_t block,
                    const int64_t *offs, int64_t noffs,
                    int64_t *dx, int64_t *dy, double *cost,
                    const int64_t *pred_x, const int64_t *pred_y,
                    double lambda_mv, int64_t rng, double *scratch) {
    for (int64_t k = 0; k < m; k++) {
        int64_t b = idx[k];
        const double *cur = cur_blocks + b * block * block;
        int64_t bdx = dx[b], bdy = dy[b];
        double bcost = cost[b];
        int64_t px = pred_x[b], py = pred_y[b];
        for (int64_t p = 0; p < noffs; p++) {
            int64_t cx = bdx + offs[2 * p], cy = bdy + offs[2 * p + 1];
            if (cx < -rng) cx = -rng; if (cx > rng) cx = rng;
            if (cy < -rng) cy = -rng; if (cy > rng) cy = rng;
            const double *r =
                ref_pad + (pad + by[b] - cy) * rp_stride + (pad + bx[b] - cx);
            double sad = sad_block(cur, r, rp_stride, block, scratch);
            double cand = sad + lambda_mv * mv_bits(cx, cy, px, py);
            if (cand < bcost - 1e-9) { bdx = cx; bdy = cy; bcost = cand; }
        }
        dx[b] = bdx; dy[b] = bdy; cost[b] = bcost;
    }
}

/* Motion compensation: per-block bilinear gather/blend from the padded
 * reference, float64 arithmetic in the reference's exact operation order
 * (weights formed as (1-ay)*(1-ax) etc., taps combined left-to-right),
 * final cast to float32. */
void motion_comp(const double *ref_pad, int64_t rp_stride,
                 const double *mvx, const double *mvy,
                 int64_t rng, int64_t rows, int64_t cols, int64_t block,
                 float *out, int64_t out_stride) {
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t c = 0; c < cols; c++) {
            int64_t b = r * cols + c;
            double vx = mvx[b], vy = mvy[b];
            double fdx = floor(vx), fdy = floor(vy);
            double ax = vx - fdx, ay = vy - fdy;
            const double *p00 = ref_pad + (r * block - (int64_t)fdy + rng) * rp_stride
                                + (c * block - (int64_t)fdx + rng);
            float *o = out + r * block * out_stride + c * block;
            if (ax == 0.0 && ay == 0.0) {
                for (int64_t i = 0; i < block; i++)
                    for (int64_t j = 0; j < block; j++)
                        o[i * out_stride + j] = (float)p00[i * rp_stride + j];
            } else {
                double w00 = (1.0 - ay) * (1.0 - ax);
                double w01 = (1.0 - ay) * ax;
                double w10 = ay * (1.0 - ax);
                double w11 = ay * ax;
                for (int64_t i = 0; i < block; i++) {
                    const double *q00 = p00 + i * rp_stride;
                    const double *q10 = q00 - rp_stride;
                    for (int64_t j = 0; j < block; j++) {
                        double v = ((w00 * q00[j] + w01 * q00[j - 1])
                                    + w10 * q10[j]) + w11 * q10[j - 1];
                        o[i * out_stride + j] = (float)v;
                    }
                }
            }
        }
    }
}
"""

#: Compile flags: -ffp-contract=off forbids FMA contraction (a contracted
#: a*b+c rounds once, NumPy's separate ops round twice); -O2 never
#: reassociates FP without -ffast-math, so the operation order above is
#: what runs.
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno"]

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_F64 = ctypes.c_double


def _build_library() -> ctypes.CDLL | None:
    """Compile (or reuse) the shared object; None when no compiler works."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache = Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}" / digest
    so_path = cache / "kernels.so"
    if not so_path.exists():
        try:
            cache.mkdir(parents=True, exist_ok=True)
            c_path = cache / "kernels.c"
            c_path.write_text(_C_SOURCE)
            tmp = cache / "kernels.so.tmp"
            last_err: Exception | None = None
            for compiler in ("cc", "gcc", "clang"):
                try:
                    subprocess.run(
                        [compiler, *_CFLAGS, str(c_path), "-o", str(tmp), "-lm"],
                        check=True,
                        capture_output=True,
                        timeout=120,
                    )
                    os.replace(tmp, so_path)
                    break
                except (OSError, subprocess.SubprocessError) as exc:
                    last_err = exc
            else:
                raise RuntimeError(f"no working C compiler: {last_err}")
        except (OSError, RuntimeError):
            return None
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError:
        return None
    lib.pairwise_rows.argtypes = [_PTR, _I64, _I64, _PTR]
    lib.descend.argtypes = [_PTR, _PTR, _I64, _PTR, _PTR, _I64, _I64, _I64,
                            _PTR, _I64, _PTR, _PTR, _PTR, _PTR, _PTR,
                            _F64, _I64, _I64, _PTR]
    lib.sweep_abs.argtypes = [_PTR, _PTR, _I64, _PTR, _PTR, _I64, _PTR, _I64,
                              _I64, _PTR, _I64, _PTR, _PTR, _PTR, _F64, _PTR]
    lib.sweep_rel_clip.argtypes = [_PTR, _PTR, _I64, _PTR, _PTR, _I64, _PTR,
                                   _I64, _I64, _PTR, _I64, _PTR, _PTR, _PTR,
                                   _PTR, _PTR, _F64, _I64, _PTR]
    lib.motion_comp.argtypes = [_PTR, _I64, _PTR, _PTR, _I64, _I64, _I64,
                                _I64, _PTR, _I64]
    return lib


def _as_i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


class CExtBackend(KernelBackend):
    """Compiled-C sweeps + motion compensation, self-probed for exactness."""

    name = "cext"

    def __init__(self) -> None:
        self._lib: ctypes.CDLL | None = None
        self._checked = False
        self._reason: str | None = None
        # Per-thread: the ctypes calls release the GIL, so agent threads
        # sweeping concurrently must never share a SAD scratch buffer.
        self._local = threading.local()

    # -- availability -----------------------------------------------------

    def available(self) -> bool:
        if not self._checked:
            self._checked = True
            self._lib = _build_library()
            if self._lib is None:
                self._reason = "no C compiler (cc/gcc/clang) or dlopen failed"
            elif not self._self_probe():
                self._lib = None
                self._reason = "self-probe found a bitwise mismatch vs the reference"
        if self._lib is not None:
            # Hooks are bound only once the probe has passed.
            self.descend_sweep = self._descend_sweep
            self.seed_sweep = self._seed_sweep
            self.offset_sweep = self._offset_sweep
            self.motion_compensate = self._motion_compensate
        return self._lib is not None

    def why_unavailable(self) -> str | None:
        return self._reason

    def warm(self) -> None:
        self.available()

    # -- kernels ----------------------------------------------------------

    def _ensure_scratch(self, block: int) -> np.ndarray:
        scratch = getattr(self._local, "scratch", None)
        if scratch is None or scratch.size < block * block:
            scratch = self._local.scratch = np.empty(max(block, 64) ** 2, dtype=np.float64)
        return scratch

    def _descend_sweep(self, ev, pattern, dx, dy, cost, pred_x, pred_y,
                       lambda_mv, *, max_iter=16):
        lib = self._lib
        pat = _as_i64(np.asarray(pattern).reshape(-1, 2))
        scratch = self._ensure_scratch(ev.block)
        lib.descend(
            ev.cur_blocks.ctypes.data, ev.ref_pad.ctypes.data, ev.ref_pad.shape[1],
            ev.by.ctypes.data, ev.bx.ctypes.data, ev.pad, ev.n, ev.block,
            pat.ctypes.data, pat.shape[0],
            dx.ctypes.data, dy.ctypes.data, cost.ctypes.data,
            pred_x.ctypes.data, pred_y.ctypes.data,
            float(lambda_mv), ev.search_range, int(max_iter), scratch.ctypes.data,
        )
        return dx, dy, cost

    def _seed_sweep(self, ev, idx, offsets, dx, dy, cost, lambda_mv):
        lib = self._lib
        offs = _as_i64(np.asarray(offsets).reshape(-1, 2))
        idx = _as_i64(idx)
        scratch = self._ensure_scratch(ev.block)
        lib.sweep_abs(
            ev.cur_blocks.ctypes.data, ev.ref_pad.ctypes.data, ev.ref_pad.shape[1],
            ev.by.ctypes.data, ev.bx.ctypes.data, ev.pad,
            idx.ctypes.data, idx.shape[0], ev.block,
            offs.ctypes.data, offs.shape[0],
            dx.ctypes.data, dy.ctypes.data, cost.ctypes.data,
            float(lambda_mv), scratch.ctypes.data,
        )
        return dx, dy, cost

    def _offset_sweep(self, ev, idx, offsets, dx, dy, cost, pred_x, pred_y, lambda_mv):
        lib = self._lib
        offs = _as_i64(np.asarray(offsets).reshape(-1, 2))
        idx = _as_i64(idx)
        scratch = self._ensure_scratch(ev.block)
        lib.sweep_rel_clip(
            ev.cur_blocks.ctypes.data, ev.ref_pad.ctypes.data, ev.ref_pad.shape[1],
            ev.by.ctypes.data, ev.bx.ctypes.data, ev.pad,
            idx.ctypes.data, idx.shape[0], ev.block,
            offs.ctypes.data, offs.shape[0],
            dx.ctypes.data, dy.ctypes.data, cost.ctypes.data,
            pred_x.ctypes.data, pred_y.ctypes.data,
            float(lambda_mv), ev.search_range, scratch.ctypes.data,
        )
        return dx, dy, cost

    def _motion_compensate(self, reference, mv, *, block=16):
        reference = np.asarray(reference, dtype=np.float32)
        rows, cols = mv.shape[0], mv.shape[1]
        rng = int(np.ceil(np.abs(mv).max())) + 2
        ref_pad = np.pad(reference.astype(np.float64), rng, mode="edge")
        mvx = np.ascontiguousarray(mv[..., 0], dtype=np.float64).ravel()
        mvy = np.ascontiguousarray(mv[..., 1], dtype=np.float64).ravel()
        out = np.empty(reference.shape, dtype=np.float32)
        self._lib.motion_comp(
            ref_pad.ctypes.data, ref_pad.shape[1],
            mvx.ctypes.data, mvy.ctypes.data,
            rng, rows, cols, block, out.ctypes.data, out.shape[1],
        )
        return out

    # -- self-probe -------------------------------------------------------

    def _self_probe(self) -> bool:
        """Bitwise-compare every C kernel against the codec reference."""
        try:
            from repro.codec.motion import (
                _BlockSadEvaluator,
                _descend_reference,
                _motion_compensate_reference,
                _mv_bits_vec,
                _SMALL_DIAMOND,
            )
        except ImportError:
            return False
        gen = np.random.default_rng(0xCE)
        # Pairwise summation, adversarial magnitudes.
        for n in (49, 64, 200, 256, 1024):
            a = np.exp(gen.normal(0.0, 12.0, size=(64, n)))
            out = np.empty(64, dtype=np.float64)
            self._lib.pairwise_rows(
                np.ascontiguousarray(a).ctypes.data, 64, n, out.ctypes.data
            )
            if not np.array_equal(out, a.reshape(64, n).sum(axis=1)):
                return False
        # Full descent + sweeps + MC against the reference implementations.
        for block, shape in ((16, (96, 128)), (8, (48, 64))):
            ref = gen.uniform(0, 255, size=shape).astype(np.float32)
            cur = np.clip(ref + gen.normal(0, 9, size=shape), 0, 255).astype(np.float32)
            ev_a = _BlockSadEvaluator(cur, ref, 10, block)
            ev_b = _BlockSadEvaluator(cur, ref, 10, block)
            zero = np.zeros(ev_a.n, dtype=np.int64)
            cost0 = ev_a.sad_int(zero, zero) + 4.0 * _mv_bits_vec(zero, zero, zero, zero)
            pred = gen.integers(-3, 4, size=ev_a.n)
            args_a = (zero.copy(), zero.copy(), cost0.copy(), pred, -pred, 4.0)
            args_b = (zero.copy(), zero.copy(), cost0.copy(), pred, -pred, 4.0)
            ra = _descend_reference(ev_a, _SMALL_DIAMOND, *args_a)
            rb = self._descend_sweep(ev_b, _SMALL_DIAMOND, *args_b)
            if not all(np.array_equal(x, y) for x, y in zip(ra, rb)):
                return False
            offs = [(o, p) for o in (-8, -3, 5) for p in (-6, 2, 7)]
            idx = np.flatnonzero(gen.uniform(size=ev_a.n) < 0.7)
            sa = (ra[0].copy(), ra[1].copy(), ra[2].copy())
            sb = (ra[0].copy(), ra[1].copy(), ra[2].copy())
            _probe_seed_reference(ev_a, idx, offs, *sa, 4.0)
            self._seed_sweep(ev_b, idx, offs, *sb, 4.0)
            if not all(np.array_equal(x, y) for x, y in zip(sa, sb)):
                return False
            ua = (sa[0].copy(), sa[1].copy(), sa[2].copy())
            ub = (sa[0].copy(), sa[1].copy(), sa[2].copy())
            _probe_rel_reference(ev_a, idx, offs, *ua, pred, -pred, 4.0)
            self._offset_sweep(ev_b, idx, offs, *ub, pred, -pred, 4.0)
            if not all(np.array_equal(x, y) for x, y in zip(ua, ub)):
                return False
            mv = (gen.integers(-28, 29, size=(shape[0] // block, shape[1] // block, 2))
                  * 0.25).astype(np.float32)
            if not np.array_equal(
                self._motion_compensate(ref, mv, block=block),
                _motion_compensate_reference(ref, mv, block=block),
            ):
                return False
        return True


def _probe_seed_reference(ev, idx, offsets, dx, dy, cost, lambda_mv):
    """Reference semantics of the absolute seeding sweep (probe only)."""
    from repro.codec.motion import _mv_bits_vec

    zero = np.zeros(idx.size, dtype=np.int64)
    for ox, oy in offsets:
        cdx = np.full(idx.size, ox, dtype=np.int64)
        cdy = np.full(idx.size, oy, dtype=np.int64)
        sad = ev.sad_int_subset(idx, cdx, cdy)
        cand = sad + lambda_mv * _mv_bits_vec(cdx, cdy, zero, zero)
        better = cand < cost[idx] - 1e-9
        sel = idx[better]
        dx[sel] = ox
        dy[sel] = oy
        cost[sel] = cand[better]


def _probe_rel_reference(ev, idx, offsets, dx, dy, cost, pred_x, pred_y, lambda_mv):
    """Reference semantics of the relative clipped sweep (probe only)."""
    from repro.codec.motion import _mv_bits_vec

    rng = ev.search_range
    for ox, oy in offsets:
        cx = np.clip(dx[idx] + ox, -rng, rng)
        cy = np.clip(dy[idx] + oy, -rng, rng)
        sad = ev.sad_int_subset(idx, cx, cy)
        cand = sad + lambda_mv * _mv_bits_vec(cx, cy, pred_x[idx], pred_y[idx])
        better = cand < cost[idx] - 1e-9
        sel = idx[better]
        dx[sel] = cx[better]
        dy[sel] = cy[better]
        cost[sel] = cand[better]
