#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload tab4 --seed 1 --seconds 50 --trace 0

The script builds the Go program in perfbench/ (a module of its own that
replaces `repro` with the repository root) into .bench_build/, runs it once,
and passes its output through: the last line of standard output is the
benchmark's JSON summary. Everything the build and the run write stays under
.bench_build/ in the current directory. A tree without the repository's own
sources fails to build, and the script then exits non-zero without a summary.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT = 850  # a cold build compiles the standard library too
RUN_TIMEOUT = 170


def source_digest(root):
    """Digest of every Go source and module file under root, so reports
    from different sources are never compared by mistake."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return "src-" + h.hexdigest()[:16]


def commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    dirty = subprocess.run(["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True, timeout=10)
    return out.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def run(cmd, cwd, env, timeout, stdout):
    """Run cmd in its own process group and wait for it; on timeout the
    whole group is killed and reaped."""
    p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cwd = os.getcwd()
    build = os.path.join(cwd, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(build, "perfbench")
    rc = run(["go", "build", "-o", binary, "."], HERE, env, BUILD_TIMEOUT, sys.stderr)
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    root = os.path.dirname(HERE)
    source = commit(root) or source_digest(root)
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-workdir", os.path.join(build, "work"), "-source", source]
    sys.stdout.flush()
    return run(cmd, cwd, env, RUN_TIMEOUT, None)


if __name__ == "__main__":
    sys.exit(main())
