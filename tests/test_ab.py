"""tools/ab.py: the per-metric summary of paired benchmark runs."""
import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location("ab", Path(__file__).parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def test_sign_p_is_the_exact_two_sided_binomial_tail():
    assert ab.sign_p(10, 0) == ab.sign_p(0, 10) == 2 / 1024
    assert ab.sign_p(5, 5) == 1.0
    assert ab.sign_p(8, 2) == 2 * (1 + 10 + 45) / 1024
    assert ab.sign_p(0, 0) == 1.0


def test_summary_drops_ties_from_the_sign_test():
    base = [2.0] * 10
    lower = ab.summary(base, [1.0] * 9 + [2.0], "lower")
    assert (lower["wins"], lower["pairs"], lower["p_sign"]) == (9, 10, 2 / 512)
    higher = ab.summary(base, [1.0] * 9 + [2.0], "higher")
    assert (higher["wins"], higher["p_sign"]) == (0, 2 / 512)


def test_fewer_than_six_pairs_is_refused_before_any_worktree(monkeypatch, tmp_path, capsys):
    """At 5 pairs the smallest two-sided p_sign is 2/32 = 0.0625, so no result could carry a claim."""
    calls = []
    monkeypatch.setattr(ab, "git", lambda *args: calls.append(args))
    with pytest.raises(SystemExit) as exited:
        ab.main(["HEAD", "--out", str(tmp_path / "bench.json"), "--pairs", "5"])
    assert exited.value.code == 2 and calls == []
    assert "p_sign of 5 pairs is 0.0625" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()
