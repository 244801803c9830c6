#!/usr/bin/env python3
"""Builds the charfree benchmark from source and runs one workload.

Run from the root of a charfree checkout:

    python3 perfbench/run.py --workload serve-small|offline|build \
        --seed N --seconds S --trace 0|1 [--inject-fault]

The benchmark is built with cargo into $CARGO_TARGET_DIR (default
`.bench_build`). One provenance line is printed before the result; the
last line of standard output is the result JSON. The exit code is the
benchmark's: non-zero when the build fails or the correctness gate trips.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def tree_digest():
    """A digest of the sources the benchmark builds, standing in for the
    commit when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".blif")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    return "tree:" + tree_digest()


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: no charfree sources beside perfbench/", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    env["PERFBENCH_RUSTC"] = rustc.stdout.strip() or "unknown"
    env["PERFBENCH_COMMIT"] = commit()
    sys.stdout.flush()
    binary = os.path.join(ROOT, target, "release", "charfree-perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
