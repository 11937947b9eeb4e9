"""tools/digests.py: outputs do not depend on the process that makes them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "digests.py"


def digests(*args, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_tiny_digests_agree_across_hash_seeds(tmp_path):
    paths = []
    for hash_seed in ("0", "1"):
        made = digests("--tiny", ROOT / "src", hash_seed=hash_seed)
        assert made.returncode == 0, made.stderr
        paths.append(tmp_path / f"hash{hash_seed}.json")
        paths[-1].write_text(made.stdout)
    same = digests("--compare", *paths)
    assert same.returncode == 0, same.stdout
    names = sorted(json.loads(paths[0].read_text()))
    assert f"{len(names)} of {len(names)} digests equal" in same.stdout
    assert "cli/lstm/metrics.csv" in names and "lstm/max_steps=15/probe" in names

    table = json.loads(paths[1].read_text())
    table["cnn/max_steps=8/beam3"] = "0" * 64
    paths[1].write_text(json.dumps(table))
    differ = digests("--compare", *paths)
    assert differ.returncode == 1
    assert "differs: cnn/max_steps=8/beam3" in differ.stdout
    assert f"{len(names) - 1} of {len(names)} digests equal" in differ.stdout
