"""Run one command; print its wall time, peak RSS and exit code as JSON.

    python3 -I -S perfbench/launch.py TIMEOUT_S STDOUT_PATH STDERR_PATH CMD...

A child's ru_maxrss starts from the RSS of the process that forked it (the
high-water mark carries across fork and exec), so a benchmark process that
holds parsed outputs would inflate every child's peak. Operations are
therefore started from this small process, which imports nothing heavy.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    timeout, out_path, err_path, cmd = float(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out, err = os.open(out_path, flags, 0o644), os.open(err_path, flags, 0o644)
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)])
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({"wall_s": wall, "rss_kb": usage.ru_maxrss,
                      "exit": os.waitstatus_to_exitcode(status)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
