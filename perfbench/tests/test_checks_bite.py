"""A clean smoke run passes; a flipped state root makes the run fail."""

import json
import os
import subprocess
import sys

from conftest import PERFBENCH, ROOT


def smoke(*extra):
    done = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", "abort_storm",
         "--seed", "5", "--smoke", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


def test_clean_run_reports_nothing_failed():
    code, result, _err = smoke()
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1


def test_corrupt_root_is_caught_and_counted():
    code, result, err = smoke("--selftest-corrupt-root")
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert "replay_root_mismatch" in err and "chain_differs" in err
    assert not os.path.exists(os.path.join(PERFBENCH, ".work"))
