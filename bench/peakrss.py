"""Peak resident set of the calling process image."""


def peak_rss_kb() -> int:
    """VmHWM from /proc/self/status.  getrusage's ru_maxrss would also count
    the parent's pages from before exec, since subprocess spawns by vfork."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
