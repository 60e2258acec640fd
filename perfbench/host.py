"""Host-side measurements that call no sylk code: the memory sampler,
the process-tree walk, and the host-drift control."""

from __future__ import annotations

import hashlib
import os
import re
import signal
import threading
import time


def _parent_map() -> dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; the ppid follows its ")"
        out[int(name)] = int(stat[stat.rindex(")") + 2:].split()[1])
    return out


def descendants(pid: int) -> list[int]:
    """``pid``'s live descendants (children, their children, ...)."""
    par = _parent_map()
    kids: dict[int, list[int]] = {}
    for p, q in par.items():
        kids.setdefault(q, []).append(p)
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def pss_bytes(pids) -> int:
    """Summed PSS of ``pids``.  PSS splits shared pages (the object
    store's, the interpreter's) between the processes mapping them, so
    the sum does not count them twice as RSS would."""
    total = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1]) * 1024
                        break
        except OSError:
            continue  # the process ended between the walk and the read
    return total


class PeakPss:
    """Samples the PSS of this process and its descendants (the Ray
    session's processes) on a thread while the timed window runs.

    Reading ``smaps_rollup`` walks a process's page tables, which costs
    milliseconds for a Ray worker: sampling four times a second took about
    a fifth of a core and perturbed what it measured.  Once a second costs
    a few percent, and the report prints the time it took."""

    def __init__(self, interval_s: float = 1.0):
        self.interval_s = interval_s
        self.peak = 0
        self.samples = 0
        self.busy_s = 0.0  # time spent sampling, reported as its cost
        self._stop = threading.Event()
        self._thread = None

    def _sample(self) -> None:
        t0 = time.perf_counter()
        me = os.getpid()
        self.peak = max(self.peak, pss_bytes([me] + descendants(me)))
        self.samples += 1
        self.busy_s += time.perf_counter() - t0

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        self._sample()
        return False


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"  # a zombie has ended


def stop_all(pids, grace_s: float = 20.0) -> list[int]:
    """Wait up to ``grace_s`` for ``pids`` to end, then SIGKILL the rest
    and wait for them.  Returns the pids that had to be killed."""
    deadline = time.monotonic() + grace_s
    left = [p for p in pids if _alive(p)]
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = [p for p in left if _alive(p)]
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10
    while any(_alive(p) for p in left) and time.monotonic() < deadline:
        time.sleep(0.05)
    return left


def cpu_steal() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine since boot, from
    /proc/stat.  Steal is time the hypervisor gave this machine's virtual
    CPUs to other guests; the runs it slows are slow as a whole."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:9]]
    return ticks[7], sum(ticks)


_CONTROL_TEXT = ("<34>1 2003-10-11T22:14:15.003Z mymachine.example.com su - "
                 "ID47 [exampleSDID@32473 iut=\"3\" eventSource=\"App\"] "
                 "'su root' failed for lonvick on /dev/pts/8 ") * 8
_CONTROL_RE = re.compile(r"[A-Za-z]+=\"[^\"]*\"|\d{2}:\d{2}:\d{2}")
_CONTROL_BUF = bytes(range(256)) * 256


def drift_control(seconds: float = 0.3) -> float:
    """Host speed in fixed loops per second: one loop is a sha256 over
    64 KiB plus a regex scan of a fixed text.  It calls no sylk code, so
    a change to sylk cannot move it; a change in this number between
    runs is the host, not the program."""
    n = 0
    t0 = time.perf_counter()
    while True:
        hashlib.sha256(_CONTROL_BUF).digest()
        _CONTROL_RE.findall(_CONTROL_TEXT)
        n += 1
        dt = time.perf_counter() - t0
        if dt >= seconds:
            return n / dt
