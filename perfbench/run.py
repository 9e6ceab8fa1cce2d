#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout compiles the program and the bench with sbt
(offline) and records the classpath under .bench_build/; later runs reuse it
while no source file has changed. Each run then starts one JVM that runs the
workload and prints one JSON result as the last line of standard output.
Everything the run writes stays under .bench_build/ in the checkout.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
STAMP = os.path.join(BUILD, "classpath.stamp")
CLASSPATH = os.path.join(BUILD, "classpath.txt")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "3g"

# Spark 4 on Java 17 needs these packages opened (as in the program's build.sbt).
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]

SOURCE_SUFFIXES = (".scala", ".java", ".sbt", ".properties")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    """Hash of every source and build file the classpath is built from."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, d) for d in ("build.sbt", "project", "src", "jobs", "perfbench")]
    for top in roots:
        paths = [top] if os.path.isfile(top) else []
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", ".bsp"))
            paths += [os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(SOURCE_SUFFIXES)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def build():
    """Compile with sbt and record the runtime classpath, unless sources are unchanged."""
    stamp = source_stamp()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read().strip() == stamp:
                with open(CLASSPATH) as c:
                    return c.read().strip()
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    env["SBT_OPTS"] = " ".join([
        "-Dsbt.override.build.repos=true",
        "-Dsbt.repository.config=" + os.path.expanduser("~/.sbt/repositories"),
        "-Dsbt.offline=true",
        "-Dsbt.server.forcestart=false",
        "-Dsbt.global.base=" + os.path.join(BUILD, "sbt-global"),
        "-Xmx2g",
    ])
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"]
    print("[perfbench] building with sbt (first run in this checkout)", file=sys.stderr)
    try:
        proc = subprocess.run(cmd, cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S, text=True,
                              start_new_session=True)
    except subprocess.TimeoutExpired:
        fail("sbt build timed out", 3)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        fail(f"sbt build failed (exit {proc.returncode})", 3)
    classpath = lines[-1].strip()
    with open(CLASSPATH, "w") as f:
        f.write(classpath + "\n")
    with open(STAMP, "w") as f:
        f.write(stamp + "\n")
    return classpath


def scratch_dirs():
    """Fresh per-run directories for Spark's scratch files, checkpoints and temp files."""
    run = os.path.join(BUILD, "run")
    shutil.rmtree(run, ignore_errors=True)
    dirs = {name: os.path.join(run, name) for name in ("spark-local", "warehouse", "checkpoints", "tmp")}
    for d in dirs.values():
        os.makedirs(d)
    return dirs


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt")) and os.path.isdir(os.path.join(ROOT, "src", "main"))):
        fail("run from the root of a checkout: the program's build.sbt and src/main are missing", 2)
    classpath = build()
    dirs = scratch_dirs()
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + ["-Djdk.reflect.useDirectMethodHandle=false",
              "-Dspark.driver.host=127.0.0.1",
              "-Dspark.ui.enabled=false",
              f"-Dspark.local.dir={dirs['spark-local']}",
              f"-Dspark.sql.warehouse.dir={dirs['warehouse']}",
              f"-Dspark.sql.streaming.checkpointLocation={dirs['checkpoints']}",
              f"-Djava.io.tmpdir={dirs['tmp']}",
              "-cp", classpath, "perfbench.Main"] + argv)
    proc = subprocess.Popen(cmd, cwd=dirs["tmp"], stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0:
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        fail(f"bench exited with {proc.returncode}", proc.returncode if proc.returncode > 0 else 5)
    try:
        result = json.loads(lines[-1])
        assert set(result) == RESULT_KEYS
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(out)
        fail("bench printed no result line", 5)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
