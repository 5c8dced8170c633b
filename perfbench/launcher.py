"""Start the measured processes from a small helper process.

On Linux a child's ``ru_maxrss`` includes the peak RSS of the process
that spawned it: ``exec`` records the old address space's high-water
mark, and that is the parent's.  The benchmark itself grows to hundreds
of MB while it builds reference data, so it starts this helper first,
while it is still small, and has the helper start every CLI process.
The helper reads one JSON request per line on stdin and answers with
the exit code, wall time, CPU time and peak RSS of the process it ran.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


class Launcher:
    """Client side: owns the helper process; use as a context manager."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )

    def run(self, argv: list[str], cwd, stdout_path, stderr_path) -> tuple[int, float, float, float]:
        """Run one process to completion: (exit code, wall s, CPU s, peak RSS MB)."""
        request = {"argv": argv, "cwd": str(cwd), "stdout": str(stdout_path), "stderr": str(stderr_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        reply = json.loads(line)
        return reply["code"], reply["wall_s"], reply["cpu_s"], reply["maxrss_kb"] / 1024

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,  # kB on Linux
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
