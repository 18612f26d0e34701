import importlib.util
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

from radialtyz.scalars import BallScalar, as_scalar

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bit_identity.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bit_identity", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bit_identity_digest_covers_each_input_and_ball_endpoints():
    tool = _tool()
    two = tool.digest(ROOT, "lu-sweep", 0, 2)
    assert two == tool.digest(ROOT, "lu-sweep", 0, 2)
    assert two != tool.digest(ROOT, "lu-sweep", 0, 1)
    # a ball's endpoints go in, not only its rounded decimal form
    ball = as_scalar(F(1, 3)).to_ball(64)
    assert tool._balls({"a": [ball, as_scalar(1)]}) == [[[list(end) for end in ball.mpi], 64]]


def test_bit_identity_digests_equal_balls_alike():
    # (2, 0, 2, 0) and (1, 1, 1, 1) are one ball: trailing zero bits do not count
    tool = _tool()
    two = as_scalar(2).to_ball(64)
    same = BallScalar(two.mpi, 64)
    assert two.iv != same.iv and two == same
    assert tool._balls([two]) == tool._balls([same])


def test_bit_identity_prints_one_digest_for_cli_inputs():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "cli-oneshot", "--seed", "0", "--count", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    assert len(line) == 64 and int(line, 16) >= 0


def test_bit_identity_digests_the_format_asked_for_cli_inputs():
    tool = _tool()
    csv = tool.digest(ROOT, "cli-oneshot", 0, 2, "csv")
    assert csv == tool.digest(ROOT, "cli-oneshot", 0, 2, "csv")
    # the CSV of both inputs goes in, not their JSON
    assert csv != tool.digest(ROOT, "cli-oneshot", 0, 2)
    assert csv != tool.digest(ROOT, "cli-oneshot", 0, 1, "csv")
