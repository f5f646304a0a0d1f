"""Run one child process and measure it: wall time, CPU time of all its
threads and its peak resident memory, from the kernel's accounting (wait4)."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass

from .spans import now


@dataclass(frozen=True)
class ProcResult:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env(root) -> dict:
    """The benchmark's environment with the checkout's src first on the path.
    PE_SIM_THREADS is removed so the eps study sizes its own pool.  No
    byte-code is written, so every run imports the sources the same way and
    nothing is added to the checkout."""
    env = dict(os.environ)
    env.pop("PE_SIM_THREADS", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run(args, cwd, env, log_dir) -> ProcResult:
    """Run `python args...` to completion; stdout and stderr go through files
    in log_dir so that a chatty child cannot block on a full pipe."""
    out_path = os.path.join(log_dir, "stdout.txt")
    err_path = os.path.join(log_dir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = now()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return ProcResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, stdout, stderr)
