#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 ledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary (this directory's Cargo package) and then the
two worker binaries the multi-process fabrics spawn, all in release mode
into one target directory ($CARGO_TARGET_DIR, default `.bench_build`), and
runs the benchmark with the given arguments from the repository root. The
last line of standard output is the benchmark's JSON result; build output
goes to standard error.
"""

import glob
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKERS = {"cc-clique-host": "congested-clique", "cc-clique-node": "cc-transport"}
# Longest a run may take once everything is built.
RUN_TIMEOUT_S = 170


def cargo_build(target, *args):
    cmd = ["cargo", "build", "--release", "--offline", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit(f"run.py: {' '.join(cmd)} failed")


def build(target):
    profile_dir = os.path.join(ROOT, target, "release")
    bench = os.path.join(profile_dir, "cc-ledger")
    cargo_build(target, "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    worker_args = []
    for binary, package in WORKERS.items():
        worker_args += ["-p", package, "--bin", binary]
    cargo_build(target, "--manifest-path", os.path.join(ROOT, "Cargo.toml"), *worker_args)
    # The benchmark refuses workers older than itself. After a change to the
    # benchmark alone Cargo relinks only the benchmark, so drop the (up to
    # date, but older) worker executables and let Cargo link them again.
    stale = [b for b in WORKERS if os.path.getmtime(os.path.join(profile_dir, b))
             < os.path.getmtime(bench)]
    if stale:
        for binary in stale:
            os.remove(os.path.join(profile_dir, binary))
            stem = binary.replace("-", "_")
            for linked in glob.glob(os.path.join(profile_dir, "deps", stem + "-*")):
                if not linked.endswith(".d"):
                    os.remove(linked)
        cargo_build(target, "--manifest-path", os.path.join(ROOT, "Cargo.toml"), *worker_args)
    return bench


def source_digest():
    """Digest of the program's sources: identifies the build when the
    checkout carries no version-control metadata."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.toml")]
    for top in ("src", "crates"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(dirpath, n) for n in names
                      if n.endswith((".rs", ".toml"))]
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def output_of(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bench = build(target)

    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = output_of(["git", "rev-parse", "HEAD"]) or "none"
    commit += "+src:" + source_digest()
    rustc = output_of(["rustc", "-V"]) or "unknown"

    # The unix-socket fabric makes its sockets in the temporary directory;
    # keep them inside the checkout, on a relative path short enough for a
    # socket address.
    tmp = os.path.join(ROOT, target, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.relpath(tmp, ROOT))

    cmd = [bench, *sys.argv[1:], "--commit", commit, "--rustc", rustc]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The benchmark's worker processes share its process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"run.py: the benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
