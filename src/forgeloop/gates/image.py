"""Image-quality accuracy gate: MAE / PSNR / luminance SSIM over PPM frames.

Normative definitions for this artifact:

* MAE: mean absolute difference over all channel samples, in 8-bit units.
* PSNR: ``20 * log10(255 / sqrt(MSE))`` dB; +inf when MSE == 0 (an exact
  match passes any threshold).
* SSIM: luminance-only (BT.601 weights 0.299/0.587/0.114), computed over
  non-overlapping 8x8 windows with population statistics and the standard
  constants C1=(0.01*255)**2, C2=(0.03*255)**2, then averaged. Trailing
  partial windows are dropped.

Frames are exchanged as raw binary PPM (P6, maxval 255), the only format
the candidate/baseline pipeline uses.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from forgeloop.errors import ForgeloopError, checked


class MalformedPPM(ForgeloopError):
    pass


class DimensionMismatch(ForgeloopError):
    pass


@checked
class ImageGateSpec(NamedTuple):
    """Quality bar a candidate frame must clear against the baseline."""

    mae_max: float = 2.0
    psnr_min_db: float = 35.0
    ssim_min: float = 0.98
    width: int = 432
    height: int = 432

    def _check(self):
        if self.mae_max <= 0 or self.psnr_min_db <= 0 or self.ssim_min <= 0:
            raise ValueError("gate thresholds must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("gate dimensions must be positive")


class GateResult(NamedTuple):
    passed: bool
    mae: float
    psnr_db: float
    ssim: float


_SSIM_WINDOW = 8
_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2
_BT601 = (0.299, 0.587, 0.114)


def _luminance(img: np.ndarray) -> np.ndarray:
    r, g, b = _BT601
    f = img.astype(np.float64)
    return r * f[:, :, 0] + g * f[:, :, 1] + b * f[:, :, 2]


def _window_means(y: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-window mean of y and of y**2 over the non-overlapping w x w grid."""
    h_w, w_w = y.shape[0] // w, y.shape[1] // w
    trimmed = y[: h_w * w, : w_w * w]
    blocks = trimmed.reshape(h_w, w, w_w, w)
    return blocks.mean(axis=(1, 3)), (blocks * blocks).mean(axis=(1, 3))


def ssim_luminance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean luminance SSIM over non-overlapping 8x8 windows (see module doc)."""
    ya, yb = _luminance(a), _luminance(b)
    if ya.shape[0] < _SSIM_WINDOW or ya.shape[1] < _SSIM_WINDOW:
        raise DimensionMismatch("image smaller than one SSIM window")
    mu_a, sq_a = _window_means(ya, _SSIM_WINDOW)
    mu_b, sq_b = _window_means(yb, _SSIM_WINDOW)
    h_w, w_w = mu_a.shape
    prod = (
        ya[: h_w * _SSIM_WINDOW, : w_w * _SSIM_WINDOW]
        * yb[: h_w * _SSIM_WINDOW, : w_w * _SSIM_WINDOW]
    )
    mu_ab = prod.reshape(h_w, _SSIM_WINDOW, w_w, _SSIM_WINDOW).mean(axis=(1, 3))
    var_a = sq_a - mu_a * mu_a
    var_b = sq_b - mu_b * mu_b
    cov = mu_ab - mu_a * mu_b
    ssim_map = ((2 * mu_a * mu_b + _C1) * (2 * cov + _C2)) / (
        (mu_a * mu_a + mu_b * mu_b + _C1) * (var_a + var_b + _C2)
    )
    return float(ssim_map.mean())


def image_gate(candidate: np.ndarray, baseline: np.ndarray, spec: ImageGateSpec) -> GateResult:
    """Score a candidate frame against the baseline and apply the quality bar.

    Raises DimensionMismatch when either frame deviates from the ``spec``
    dimensions: a wrong-size candidate is reported distinctly, not scored.
    """
    for name, img in (("candidate", candidate), ("baseline", baseline)):
        if img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] != 3:
            raise MalformedPPM(f"{name} image must be HxWx3 uint8")
        if img.shape[0] != spec.height or img.shape[1] != spec.width:
            raise DimensionMismatch(
                f"{name} is {img.shape[1]}x{img.shape[0]}, "
                f"expected {spec.width}x{spec.height}"
            )

    diff = candidate.astype(np.float64) - baseline.astype(np.float64)
    mae = float(np.abs(diff).mean())
    mse = float((diff * diff).mean())
    psnr = float("inf") if mse == 0.0 else 20.0 * math.log10(255.0 / math.sqrt(mse))
    ssim = 1.0 if mse == 0.0 else ssim_luminance(candidate, baseline)
    passed = mae <= spec.mae_max and psnr >= spec.psnr_min_db and ssim >= spec.ssim_min
    return GateResult(passed=passed, mae=mae, psnr_db=psnr, ssim=ssim)


_PPM_HEADER = re.compile(rb"^P6\s")


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited header token, skipping '#' comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise MalformedPPM("truncated PPM header")
    return data[start:pos], pos


def parse_image(path: str | Path) -> np.ndarray:
    """Decode a binary PPM (P6, maxval 255) into an HxWx3 uint8 array."""
    data = Path(path).read_bytes()
    if not _PPM_HEADER.match(data):
        magic = data[:2]
        if magic == b"P3":
            raise MalformedPPM("ASCII PPM (P3) is not supported, only binary P6")
        raise MalformedPPM(f"not a P6 PPM (magic {magic!r})")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise MalformedPPM(f"non-numeric PPM header field {token!r}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise MalformedPPM("non-positive PPM dimensions")
    if maxval != 255:
        raise MalformedPPM(f"unsupported maxval {maxval}, must be 255")
    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise MalformedPPM("missing separator before PPM payload")
    pos += 1
    payload = data[pos:]
    expected = width * height * 3
    if len(payload) != expected:
        raise MalformedPPM(f"payload is {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3).copy()


def write_image(path: str | Path, img: np.ndarray) -> None:
    """Encode an HxWx3 uint8 array as canonical P6 (header 'P6\\n<w> <h>\\n255\\n')."""
    if img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] != 3:
        raise MalformedPPM("image must be HxWx3 uint8")
    height, width = img.shape[:2]
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.tobytes())
