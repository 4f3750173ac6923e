"""One measured gkpmdi CLI invocation in a fresh interpreter.

Usage: python3 child.py SPEC.json

SPEC holds ``src`` (the directory that must provide ``gkpmdi``), ``argv``
(CLI arguments, or null to measure the import only), ``trace`` (wrap the
package with ``tracer.Tracer``), ``result`` (where to write the JSON result)
and ``spans`` (where a traced run writes its spans).

Every instance runs in its own process because ``sweeps.link_sigma_r2`` and
``fading._residual_interpolant`` are process-wide caches: a repeat inside one
process would time cache hits, not the work each CLI call pays for.
"""
import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _own_peak_kb() -> int:
    """Peak resident set of this process image.

    ``ru_maxrss`` survives exec on Linux, so in a freshly spawned process it
    also holds the spawning parent's resident set at fork time; the memory
    map's own high-water mark (VmHWM) does not.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    t_import = time.perf_counter()
    import gkpmdi.cli
    t_imported = time.perf_counter()
    if not os.path.abspath(gkpmdi.cli.__file__).startswith(src + os.sep):
        print(f"gkpmdi imported from {gkpmdi.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = {"t_imported": t_imported, "import_s": t_imported - t_import}
    if spec["argv"] is not None:
        link_cache = gkpmdi.sweeps.link_sigma_r2
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        code = gkpmdi.cli.main(spec["argv"])
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        info = link_cache.cache_info()
        peak_kb = max(_own_peak_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result.update({"exit_code": code, "wall_s": wall, "cpu_s": cpu,
                       "peak_rss_mb": peak_kb / 1024.0,
                       "link_sigma_r2": {"hits": info.hits, "misses": info.misses}})
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write_spans(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
