"""tools/fingerprint.py runs, repeats itself, and hashes arrays by value.
It is not a pinned-hash gate: the hashes depend on the host's BLAS."""

import importlib
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("fingerprint")


def test_two_runs_of_a_tiny_set_agree(monkeypatch):
    fp = load(monkeypatch)
    tiny = dict(strategies=("Vanilla", "FusedKV"), kv_heads=(2,), precisions=("double",))
    first, second = fp.fingerprint(**tiny), fp.fingerprint(**tiny)
    assert list(first) == [*fp.GROUPS, "all"]
    assert first == second
    assert len(set(first.values())) == len(first)  # each group hashes its own arrays


def test_extended_precision_is_hashed_by_value(monkeypatch):
    # two equal longdouble arrays whose padding bytes differ hash alike
    fp = load(monkeypatch)
    raw = np.zeros((2, 3), dtype=np.longdouble)
    raw[...] = np.arange(6).reshape(2, 3) / np.longdouble(3)
    other = raw.copy()
    width = np.finfo(np.longdouble).nexp + np.finfo(np.longdouble).nmant + 1  # bits that carry the value
    used = -(-width // 8)
    if used < raw.itemsize:
        other.view(np.uint8).reshape(6, raw.itemsize)[:, used:] = 0xAB
        assert raw.tobytes() != other.tobytes()
    assert np.array_equal(raw, other)
    digests = []
    for arr in (raw, other):
        h = fp.hashlib.sha256()
        fp._update(h, arr)
        digests.append(h.hexdigest())
    assert digests[0] == digests[1]
