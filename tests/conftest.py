"""Shared pytest fixtures for the test suite."""

import zipfile

import numpy as np
import pytest


@pytest.fixture
def rng():
    """A deterministic numpy Generator for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_binary_dataset(rng):
    """A small, linearly separable-ish binary dataset (X, y)."""
    n, d = 200, 6
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    logits = X @ w + 0.25 * rng.normal(size=n)
    y = (logits > 0).astype(int)
    return X, y


def _damage_npz(path, kind: str) -> None:
    """Damage the ``.npz`` at ``path`` in place, the way a disk or a copy can."""
    data = bytearray(path.read_bytes())
    if kind == "empty":
        data = bytearray()
    elif kind == "truncated":
        data = data[: len(data) // 2]
    else:
        # Flip one bit in the last data byte of the largest member: its
        # array header stays intact, so only the zip's CRC-32 can catch it.
        with zipfile.ZipFile(path) as archive:
            member = max(archive.infolist(), key=lambda info: info.file_size)
        header = member.header_offset
        name_length = int.from_bytes(data[header + 26:header + 28], "little")
        extra_length = int.from_bytes(data[header + 28:header + 30], "little")
        start = header + 30 + name_length + extra_length
        data[start + member.compress_size - 1] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.fixture(params=["empty", "truncated", "bit-flipped"])
def damage_npz(request):
    """A function damaging an ``.npz`` in place: emptied, cut in half, or
    with one bit flipped (one test case each)."""
    return lambda path: _damage_npz(path, request.param)
