"""Run one srcodes CLI command in this process and report what it cost.

    python3 launch.py STATS_JSON TRACE_JSON|- OP_ID [CLI ARGS...]

With no CLI arguments it runs nothing: that no-op is the baseline whose
interpreter start-up and import reads the benchmark subtracts.  After
the command it writes STATS_JSON with the exit code, the bytes the
process passed through read and write system calls (/proc/self/io
rchar and wchar) and its peak RSS (VmHWM of /proc/self/status, which
starts afresh at exec; ru_maxrss would carry over the parent's size).
With a TRACE_JSON path it also records spans around the srcodes layers
(see spans.py) and writes them there.  Exits with the command's exit
code.
"""

from __future__ import annotations

import json
import sys
import traceback


def _proc_fields(name: str) -> dict[str, str]:
    with open(f"/proc/self/{name}") as fh:
        return dict(line.split(":", 1) for line in fh.read().splitlines())


def _counters() -> dict[str, int]:
    io = _proc_fields("io")
    peak_kb = _proc_fields("status")["VmHWM"].split()[0]
    return {"rchar": int(io["rchar"]), "wchar": int(io["wchar"]),
            "peak_kb": int(peak_kb)}


def main() -> int:
    stats_path, trace_path, op, args = (sys.argv[1], sys.argv[2],
                                        int(sys.argv[3]), sys.argv[4:])
    tracer = None
    if trace_path != "-":
        import spans

        tracer = spans.Tracer(op)
        spans.install(tracer)
    from srcodes import cli

    code = 0
    if args:
        try:
            cli.main.main(args=args, prog_name="srcodes", standalone_mode=True)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is the program's failure: report it
            traceback.print_exc()
            code = 1
    sys.stdout.flush()
    sys.stderr.flush()
    stats = {"exit": code, **_counters()}
    if tracer is not None:
        with open(trace_path, "w") as fh:
            json.dump(tracer.spans, fh)
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
