"""End-to-end benchmark of the srcodes CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--tiny]

Run from the root of a source checkout: the program is imported from
``src/``.  One client runs a closed loop, one command at a time; each
command runs in its own child process (launch.py), so wall time, peak
RSS and the bytes passed through read/write system calls belong to that
command alone.  Every output is checked: decoded files against the
input, rebuilt shards against their pre-failure files, repeated encodes
and reports against the first ones.  A command that exits non-zero or
writes wrong bytes is a failed op; a fault of the benchmark itself
aborts the run with exit code 2.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced steps and reports the
per-layer metrics: spans around the srcodes layers (spans.py) from the
traced commands, the per-command figures from the untraced ones, and
the tracing overhead as the difference between the two.  ``--workload
all`` runs every workload in turn.  ``--tiny`` shrinks every input for
a smoke test of the benchmark itself.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record of the run
(metadata, every op, every metric) goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402  (lives beside this file)

TRIPLES = ((10, 6, 2), (20, 16, 3), (50, 46, 2))
SIM_CHUNK = 64 << 20
SETUP_REPEATS = 2
SETUP_WORKERS = 2   # set-up commands run two at a time, one per core
BASELINE_REPEATS = 3
COMMAND_TIMEOUT_S = 100
MB = 1e6
HEADER_B = 44   # fixed shard header (docs/FORMATS.md); CRC table follows
PAGE_CACHE_NOTE = ("all shard data fits in the OS page cache and the program "
                   "has no cache of its own: timings are the sandbox's, "
                   "not a disk's")


@dataclass(frozen=True)
class Size:
    file_bytes: int
    chunk_size: int
    machines: int
    data_per_machine: int


FULL = Size(64 << 20, 64 << 10, 1000, 40_000_000_000)
TINY = Size(1 << 20, 4 << 10, 60, 1_000_000_000)


class HarnessError(Exception):
    """The benchmark itself went wrong; the run aborts."""


@dataclass
class Op:
    """One CLI command as the benchmark saw it."""

    kind: str
    variant: str             # with kind and triple, the op's class
    triple: str
    node: int
    op: int
    traced: bool
    wall_s: float
    exit: int
    read_b: int              # net of the no-op baseline
    write_b: int
    rss_mb: float
    ok: bool = False
    work_b: int = 0          # verified output bytes (simulated bytes for simulate)
    user_b: int = 0          # file bytes an encode or decode covers
    gamma_b: int = 0         # the paper's repair bandwidth for a node repair
    fallback: bool = False
    probe: bool = False


def sha_file(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def stripes(size: Size, triple) -> int:
    n, k, f = triple
    per_stripe = f * k * size.chunk_size
    return -(-size.file_bytes // per_stripe)


def tag(triple) -> str:
    return "-".join(map(str, triple))


def helpers_of(node: int, triple) -> list[int]:
    """Look-up helpers of a node: node i holds subscripts i..i+f, and the
    other holders of those subscripts are the nodes within f of i."""
    n, _, f = triple
    return sorted({(node - 1 + d) % n + 1 for d in range(-f, f + 1) if d})


class Bench:
    """State of one workload run: work directory, seeded choices, ops."""

    def __init__(self, size: Size, seed: int, work: Path):
        self.size, self.seed, self.work = size, seed, work
        self.rng = random.Random(seed)
        self.ops: list[Op] = []
        self.span_rows: list[list] = []
        self.setup_s: list[float] = []
        self.startup_s = 0.0
        self._op_ids = itertools.count()
        self._base = {"rchar": 0, "wchar": 0}
        self.encodes: dict = {}
        self.pristine_digests: dict = {}
        self.manifest_b: dict = {}
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        (work / "stats").mkdir(parents=True)

    def launch(self, args: list[str], traced: bool = False):
        """Run launch.py; returns (op id, exit code, stdout, stderr, stats,
        wall seconds)."""
        op = next(self._op_ids)
        stats_path = self.work / "stats" / f"{op}.json"
        trace_path = self.work / "stats" / f"{op}.spans.json"
        cmd = [sys.executable, str(BENCH / "launch.py"), str(stats_path),
               str(trace_path) if traced else "-", str(op), *args]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.work, env=self.env,
                                  stdin=subprocess.DEVNULL, capture_output=True,
                                  timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            wall = time.perf_counter() - start
            return op, -1, b"", b"timeout", {"rchar": 0, "wchar": 0,
                                            "peak_kb": 0}, wall
        wall = time.perf_counter() - start
        if not stats_path.exists():
            raise HarnessError(f"launcher wrote no stats for {args}: "
                               f"{proc.stderr.decode(errors='replace')[-2000:]}")
        stats = json.loads(stats_path.read_text())
        if traced:
            offset = len(self.span_rows)
            for row in json.loads(trace_path.read_text()):
                row[3] += offset if row[3] >= 0 else 0
                self.span_rows.append(row)
        return op, proc.returncode, proc.stdout, proc.stderr, stats, wall

    def calibrate(self) -> None:
        """No-op launches: start-up time and the reads of start-up."""
        runs = [self.launch([]) for _ in range(BASELINE_REPEATS)]
        self._base = {key: statistics.median(r[4][key] for r in runs)
                      for key in ("rchar", "wchar")}
        self.startup_s = statistics.median(r[5] for r in runs)

    def command(self, kind: str, variant: str, args: list, traced: bool,
                triple=None, node: int = 0,
                probe: bool = False) -> tuple[Op, bytes]:
        op, code, out, err, stats, wall = self.launch(
            [str(a) for a in args], traced)
        rec = Op(kind=kind, variant=variant,
                 triple=tag(triple) if triple else "", node=node,
                 op=op, traced=traced, wall_s=wall,
                 exit=code, read_b=int(stats["rchar"] - self._base["rchar"]),
                 write_b=int(stats["wchar"] - self._base["wchar"]),
                 rss_mb=stats["peak_kb"] * 1024 / MB, probe=probe,
                 fallback=b"falling back to reconstruction" in err)
        self.ops.append(rec)
        return rec, out

    def launch_all(self, commands: list[list]) -> list[tuple]:
        """Launch untraced set-up commands SETUP_WORKERS at a time; a
        command that exits non-zero aborts the run."""
        with ThreadPoolExecutor(SETUP_WORKERS) as pool:
            runs = list(pool.map(lambda args: self.launch([str(a) for a in args]),
                                 commands))
        for args, (_, code, _, err, _, _) in zip(commands, runs):
            if code != 0:
                raise HarnessError(f"set-up {' '.join(map(str, args))} exited "
                                   f"{code}: {err.decode(errors='replace')}")
        return runs

    def setup(self, build) -> None:
        """Run the workload's set-up SETUP_REPEATS times, keep the last."""
        for _ in range(SETUP_REPEATS):
            for path in self.work.iterdir():
                if path.name != "stats":
                    shutil.rmtree(path) if path.is_dir() else path.unlink()
            start = time.perf_counter()
            build(self)
            self.setup_s.append(time.perf_counter() - start)


# --- set-up -------------------------------------------------------------

def make_input(b: Bench) -> None:
    data = random.Random(b.seed).randbytes(b.size.file_bytes)
    b.input = b.work / "input.bin"
    b.input.write_bytes(data)
    b.input_digest = hashlib.sha256(data).hexdigest()


def make_shard_sets(b: Bench) -> None:
    """Input plus, per triple, a pristine shard set and a live set of hard
    links to it: the program replaces the files it writes, so only the
    benchmark's own byte flips need a private copy (flip_byte).  The
    pristine digests must match those of the previous set-up."""
    make_input(b)
    b.pristine = {t: b.work / "pristine" / tag(t) for t in TRIPLES}
    b.live, b.files = {}, {}
    b.launch_all([["encode", b.input, "--n", n, "--k", k, "--f", f,
                   "--chunk-size", b.size.chunk_size, "--out", b.pristine[n, k, f]]
                  for n, k, f in TRIPLES])
    for triple in TRIPLES:
        pristine = b.pristine[triple]
        text = (pristine / "manifest.json").read_text()
        b.manifest_b[triple] = len(text)
        manifest = json.loads(text)
        files = {int(node): entry["file"]
                 for node, entry in manifest["shards"].items()}
        digests = {node: sha_file(pristine / name) for node, name in files.items()}
        if b.pristine_digests.setdefault(triple, digests) != digests:
            raise HarnessError(f"encode {tag(triple)} is not deterministic "
                               "across set-ups")
        b.files[triple] = files
        b.live[triple] = b.work / "live" / tag(triple)
        shutil.copytree(pristine, b.live[triple], copy_function=os.link)
    (b.work / "stash").mkdir()


def sim_commands(b: Bench) -> list[tuple[str, list[str]]]:
    s = b.size
    common = ["--machines", s.machines, "--data-per-machine", s.data_per_machine,
              "--chunk-size", SIM_CHUNK, "--seed", b.seed,
              "--failed-machine", b.failed_machine]
    return [
        ("simulate", ["simulate", "--scheme", "src", "--n", 10, "--k", 6,
                      "--f", 2, *common]),
        ("simulate", ["simulate", "--scheme", "rs", "--n", 10, "--k", 6,
                      *common]),
        ("simulate", ["simulate", "--scheme", "replication", *common]),
        ("simulate", ["simulate", "--scheme", "rs", "--n", 50, "--k", 46,
                      "--degraded", *common]),
        ("reliability", ["reliability"]),
        ("metrics", ["metrics", "--n", 10, "--k", 6, "--f", 2]),
    ]


def make_sim_references(b: Bench) -> None:
    b.failed_machine = random.Random(b.seed).randrange(b.size.machines)
    runs = b.launch_all([args for _, args in sim_commands(b)])
    b.sim_refs = [out for _, _, out, _, _, _ in runs]


# --- steps --------------------------------------------------------------

def restore(b: Bench, triple, node: int) -> None:
    live = b.live[triple] / b.files[triple][node]
    live.unlink(missing_ok=True)
    os.link(b.pristine[triple] / b.files[triple][node], live)


def stash(b: Bench, triple, nodes) -> list[tuple[Path, Path]]:
    moves = [(b.live[triple] / b.files[triple][node],
              b.work / "stash" / b.files[triple][node]) for node in nodes]
    for src, dst in moves:
        os.replace(src, dst)
    return moves


def unstash(moves) -> None:
    for src, dst in moves:
        os.replace(dst, src)


def flip_byte(b: Bench, triple, node: int) -> None:
    """Replace a live shard by a copy with one payload byte flipped in its
    last chunk."""
    path = b.live[triple] / b.files[triple][node]
    blob = bytearray(path.read_bytes())
    blob[len(blob) - 1 - b.rng.randrange(b.size.chunk_size)] ^= 0xFF
    path.unlink()
    path.write_bytes(blob)


def decode_op(b: Bench, shard_dir: Path, triple, variant: str, traced: bool,
              probe: bool = False) -> Op:
    out = b.work / "decoded.bin"
    op, _ = b.command("decode", variant,
                      ["decode", "--manifest", shard_dir / "manifest.json",
                       "--shards", shard_dir, "--out", out], traced, triple,
                      probe=probe)
    op.user_b = b.size.file_bytes
    if op.exit == 0 and out.exists():
        op.ok = (out.stat().st_size == b.size.file_bytes
                 and sha_file(out) == b.input_digest)
    if op.ok:
        op.work_b = b.size.file_bytes
    out.unlink(missing_ok=True)
    return op


def repair_op(b: Bench, triple, node: int, variant: str, traced: bool,
              probe: bool = False) -> Op:
    n, k, f = triple
    path = b.live[triple] / b.files[triple][node]
    path.unlink()
    op, _ = b.command("repair", variant,
                      ["repair", "--manifest", b.live[triple] / "manifest.json",
                       "--shards", b.live[triple], "--node", node], traced,
                      triple, node, probe)
    op.gamma_b = f * (f + 1) * b.size.chunk_size * stripes(b.size, triple)
    if op.exit == 0 and path.exists():
        op.ok = sha_file(path) == b.pristine_digests[triple][node]
    if op.ok:
        op.work_b = path.stat().st_size
    else:
        restore(b, triple, node)
    return op


def step_write_read(b: Bench, index: int, traced: bool) -> None:
    triple = TRIPLES[index % len(TRIPLES)]
    n, k, f = triple
    out = b.work / "encoded"
    shutil.rmtree(out, ignore_errors=True)
    op, _ = b.command("encode", "",
                      ["encode", b.input, "--n", n, "--k", k, "--f", f,
                       "--chunk-size", b.size.chunk_size, "--out", out], traced,
                      triple)
    op.user_b = b.size.file_bytes
    if op.exit == 0:
        digests = {p.name: sha_file(p) for p in sorted(out.iterdir())}
        manifest = json.loads((out / "manifest.json").read_text())
        first = b.encodes.setdefault(triple, digests)
        op.ok = (digests == first and len(digests) == n + 1
                 and manifest["file_digest"] == b.input_digest
                 and manifest["file_size"] == b.size.file_bytes)
    if op.ok:
        op.work_b = b.size.file_bytes
    decode_op(b, out, triple, "all shards", traced)


def step_node_repair(b: Bench, index: int, traced: bool) -> None:
    triple = TRIPLES[index % len(TRIPLES)]
    repair_op(b, triple, b.rng.randint(1, triple[0]), "look-up", traced)


def step_degraded(b: Bench, index: int, traced: bool) -> None:
    """Four ops on one triple.  Counted: (a) decode with n-k data-holding
    nodes missing, so every parity column is used; (b) repair of a node
    whose lowest-numbered look-up helper is missing too, which forces the
    reconstruction fallback.  Probes, kept out of the counted ops
    because the program refuses them today (ROADMAP defect 1 and the
    missing per-chunk fallback) although enough intact data remains:
    (c) decode with n-k-1 nodes missing and a byte flipped in the
    lowest-numbered survivor; (d) repair with a byte flipped in one
    look-up helper."""
    triple = TRIPLES[index % len(TRIPLES)]
    n, k, f = triple
    moved = stash(b, triple, b.rng.sample(range(1, k + 1), n - k))
    decode_op(b, b.live[triple], triple, "parity-heavy", traced)
    unstash(moved)
    node = b.rng.randint(1, n)
    moved = stash(b, triple, helpers_of(node, triple)[:1])
    repair_op(b, triple, node, "helper missing", traced)
    unstash(moved)

    missing = b.rng.sample(range(1, n + 1), n - k - 1)
    survivor = min(set(range(1, n + 1)) - set(missing))
    moved = stash(b, triple, missing)
    flip_byte(b, triple, survivor)
    decode_op(b, b.live[triple], triple, "corrupt survivor", traced, probe=True)
    restore(b, triple, survivor)
    unstash(moved)
    node = b.rng.randint(1, n)
    helper = b.rng.choice(helpers_of(node, triple))
    flip_byte(b, triple, helper)
    repair_op(b, triple, node, "corrupt helper", traced, probe=True)
    restore(b, triple, helper)


def step_cluster_sim(b: Bench, index: int, traced: bool) -> None:
    commands = sim_commands(b)
    kind, args = commands[index % len(commands)]
    op, out = b.command(kind, " ".join(map(str, args[1:5])), args, traced)
    op.ok = op.exit == 0 and out == b.sim_refs[index % len(commands)]
    if op.ok and kind == "simulate":
        lost = next(line for line in out.decode().splitlines()
                    if line.startswith("lost_chunks="))
        op.work_b = int(lost.split()[0].split("=")[1]) * SIM_CHUNK


# Set-up, step and the steps of one pass over every op class, which a run
# makes at least; BENCHMARK.json and README.md say why each was chosen.
WORKLOADS = {
    "write-read": (make_input, step_write_read, len(TRIPLES)),
    "node-repair": (make_shard_sets, step_node_repair, len(TRIPLES)),
    "degraded": (make_shard_sets, step_degraded, len(TRIPLES)),
    "cluster-sim": (make_sim_references, step_cluster_sim, 6),
}


# --- metrics ------------------------------------------------------------

def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def throughput(ops: list[Op]) -> float:
    return ratio(sum(o.work_b for o in ops) / MB, sum(o.wall_s for o in ops))


def median_pass(ops: list[Op]) -> float:
    """MB per second of one pass over the op classes (kind, triple,
    variant), each op at its class's median bytes and wall time; a slow
    outlier moves it less than a plain sum, and the class mix of a run
    cut by its deadline does not move it at all."""
    classes: dict[tuple, list[Op]] = {}
    for o in ops:
        classes.setdefault((o.kind, o.triple, o.variant), []).append(o)
    work = sum(statistics.median(o.work_b for o in c) for c in classes.values())
    wall = sum(statistics.median(o.wall_s for o in c) for c in classes.values())
    return ratio(work / MB, wall)


def end_to_end(ops: list[Op], setup_s: float) -> dict:
    return {
        "work_MBps": (median_pass(ops), "MB/s"),
        "peak_rss_MB": (max(o.rss_mb for o in ops), "MB"),
        "io_per_work_byte": (ratio(sum(o.read_b + o.write_b for o in ops),
                                   sum(o.work_b for o in ops)), "B/B"),
        "setup_s": (setup_s, "s"),
    }


def per_command(ops: list[Op]) -> dict:
    """Figures per command type from untraced ops, the corrupt-shard
    probes included: their wall time counts, their bytes do not."""
    def of(kind):
        return [o for o in ops if o.kind == kind]

    out = {}
    for kind in ("encode", "decode", "repair"):
        out[f"{kind}_MBps"] = (throughput(of(kind)), "MB/s", len(of(kind)))
    for kind in ("encode", "decode", "repair", "simulate"):
        out[f"{kind}_peak_rss_MB"] = (max((o.rss_mb for o in of(kind)),
                                          default=0.0), "MB", len(of(kind)))
    repairs, decodes, encodes = of("repair"), of("decode"), of("encode")
    out["repair_read_per_gamma"] = (
        ratio(sum(o.read_b for o in repairs), sum(o.gamma_b for o in repairs)),
        "B/B", len(repairs))
    out["decode_read_per_byte"] = (
        ratio(sum(o.read_b for o in decodes), sum(o.user_b for o in decodes)),
        "B/B", len(decodes))
    out["stored_per_user_byte"] = (
        ratio(sum(o.write_b for o in encodes), sum(o.user_b for o in encodes)),
        "B/B", len(encodes))
    sims = [o.wall_s for o in of("simulate")]
    out["simulate_s"] = (statistics.median(sims) if sims else 0.0, "s",
                         len(sims))
    out["ops_failed_share"] = (ratio(sum(not o.ok for o in ops), len(ops)),
                               "share", len(ops))
    return out


def per_layer(b: Bench, untraced: list[Op], traced: list[Op]) -> dict:
    agg = spans.aggregate(b.span_rows)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def rate(name, seconds):
        return ratio(get(name, "amount") / MB, seconds)

    out = {}
    for name in ("gf256.addmul_buf", "shards.load_shard_checked"):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.bytes"] = (get(name, "amount"), "B")
        out[f"{name}.s"] = (get(name, "s"), "s")
    out["gf256.addmul_buf.MBps"] = (rate("gf256.addmul_buf",
                                         get("gf256.addmul_buf", "s")), "MB/s")
    for name in ("gf256.mat_inv", "mds.decode_matrix"):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.s"] = (get(name, "s"), "s")
    for name in ("core.encode", "core.reconstruct"):
        out[f"{name}.s"] = (get(name, "self_s"), "s")
        out[f"{name}.MBps"] = (rate(name, get(name, "self_s")), "MB/s")
    for name in ("repair.execute_repair", "shards.shard_bytes",
                 "shards.parse_shard"):
        out[f"{name}.s"] = (get(name, "s"), "s")
        out[f"{name}.MBps"] = (rate(name, get(name, "s")), "MB/s")
    for name in ("repair.node_repair_plan", "shards.write_coded_array",
                 "sim.build_cluster", "reliability.mttf_table",
                 "metrics.comparison_table"):
        out[f"{name}.s"] = (get(name, "s"), "s")
    for command in ("encode", "decode", "repair"):
        out[f"cli.{command}.self_s"] = (get(f"cli.{command}", "self_s"), "s")
    out["cli.startup_s"] = (b.startup_s, "s")
    repairs = [o for o in untraced + traced if o.kind == "repair"]
    out["cli.repair.fallback_share"] = (
        ratio(sum(o.fallback for o in repairs), len(repairs)), "share")
    runs = ("sim.run_node_failure", "sim.run_degraded_read")
    sim_s = sum(get(name, "s") for name in runs)
    jobs = sum(get(name, "amount") for name in runs)
    out["sim.run.s"] = (sim_s, "s")
    out["sim.jobs"] = (jobs, "count")
    out["sim.jobs_per_s"] = (ratio(jobs, sim_s), "1/s")
    plain, with_spans = median_pass(untraced), median_pass(traced)
    out["trace.overhead_share"] = (ratio(plain - with_spans, plain), "share")
    out["trace.work_MBps_delta"] = (with_spans - plain, "MB/s")
    out["trace.spans"] = (len(b.span_rows), "count")
    return out


def check_gamma(b: Bench, ops: list[Op]) -> None:
    """The byte counter must see what the repair plan implies: at
    (10,6,2) a look-up repair reads the manifest plus either all f+1
    slots of its 2f helpers (2 gamma, today) or only the planned f slots
    of each (gamma), give or take the helpers' headers and CRC tables."""
    triple = (10, 6, 2)
    n, k, f = triple
    header_b = 2 * f * (HEADER_B + 4 * (f + 1) * stripes(b.size, triple))
    manifest_b = b.manifest_b[triple]
    for op in ops:
        if op.kind == "repair" and op.ok and op.triple == tag(triple):
            for share in (2, 1):
                extra = op.read_b - manifest_b - share * op.gamma_b
                if 0 <= extra <= header_b:
                    break
            else:
                raise HarnessError(
                    f"repair of node {op.node}: counted {op.read_b} read "
                    f"bytes, neither 2 gamma nor gamma ({op.gamma_b}) plus "
                    f"the manifest ({manifest_b}) and at most {header_b} "
                    "header bytes")


def metadata(workload: str, seed: int, seconds: int, trace: int,
             size: Size) -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "size": asdict(size), "git_commit": commit,
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "loop": "closed, one client, one command "
            "at a time", "note": PAGE_CACHE_NOTE}


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 size: Size) -> dict:
    setup, step, one_pass = WORKLOADS[name]
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    b = Bench(size, seed, work)
    try:
        b.setup(setup)
        b.calibrate()
        deadline = time.perf_counter() + seconds
        index = 0
        while (index < one_pass * (2 if trace else 1)
               or time.perf_counter() < deadline):
            traced = trace and index % 2 == 1
            step(b, index // 2 if trace else index, traced)
            index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    counted = [o for o in b.ops if not o.probe]
    untraced = [o for o in counted if not o.traced]
    traced_ops = [o for o in counted if o.traced]
    if name == "node-repair":
        check_gamma(b, untraced)
        if trace and spans.aggregate(b.span_rows).get("gf256.addmul_buf"):
            raise HarnessError("node-repair ran the GF(256) kernel; look-up "
                               "repair is meant to be XOR only")
    setup_s = statistics.median(b.setup_s)
    result = {
        "meta": metadata(name, seed, seconds, int(trace), size),
        "end_to_end": end_to_end(untraced, setup_s),
        "per_command": per_command([o for o in b.ops if not o.traced]),
        "per_layer": per_layer(b, untraced, traced_ops) if trace else {},
        "setup_runs_s": b.setup_s,
        "ops": [asdict(o) for o in b.ops],
    }
    out_dir = STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if trace:
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(b.span_rows))
    return result


def report(name: str, result: dict, trace: bool) -> dict:
    """Print the run's figures; return its final-line summary."""
    counted = [o for o in result["ops"] if not o["probe"]]
    print(json.dumps({"meta": result["meta"]}))
    print(f"# {name}: {len(counted)} ops, setup runs "
          f"{[round(s, 3) for s in result['setup_runs_s']]} s")
    for metric, (value, unit) in result["end_to_end"].items():
        print(f"  {metric:34s} {value:14.6g} {unit:6s} (e2e)")
    for metric, (value, unit, samples) in result["per_command"].items():
        print(f"  {metric:34s} {value:14.6g} {unit:6s} n={samples}")
    for metric, (value, unit) in result["per_layer"].items():
        print(f"  {metric:34s} {value:14.6g} {unit:6s} (layer)")
    table = result["end_to_end"]
    if trace:
        table = {**{m: (v, u) for m, (v, u, _) in result["per_command"].items()},
                 **result["per_layer"]}
    failed = sum(not o["ok"] for o in counted)
    return {"correct": failed == 0, "attempted": len(counted), "failed": failed,
            "metrics": {m: {"value": v, "unit": u}
                        for m, (v, u) in table.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for a smoke test of the benchmark")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "srcodes" / "cli.py").is_file():
        print(f"error: no srcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    size = TINY if args.tiny else FULL
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), size)
            summaries[name] = report(name, result, bool(args.trace))
    except HarnessError as exc:
        print(f"error: benchmark fault: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {"correct": all(s["correct"] for s in summaries.values()),
                 "attempted": sum(s["attempted"] for s in summaries.values()),
                 "failed": sum(s["failed"] for s in summaries.values()),
                 "metrics": {f"{name}.{m}": v for name, s in summaries.items()
                             for m, v in s["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
