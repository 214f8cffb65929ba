"""Command runner, output checks and the two benchmark workloads.

Every command is one ``replaycm`` process, launched after the previous one
has exited (a closed loop with one client).  The only parallelism is the
CLI's own ``--jobs``; BLAS runs one thread per process.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import struct
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
TRACER = HERE / "tracer.py"
ATTACK_CODES = tuple(d + q for d in "ABC" for q in "ABC")
SPLITS = ("train", "dev", "eval")
KIND_CODES = {"stft": 0, "gd": 1, "mgd": 2, "cqt": 3}
FULL_BINS = {"stft": 513, "gd": 513, "mgd": 513, "cqt": 9 * 96}
FULL_FRAMES = 500
SCORE_LINE = re.compile(r"^(\S+) (-?\d+\.\d{6})$")
EVAL_LINE = re.compile(r"^eer=(\S+) min_tdcf=(\S+)$")
BLAS_THREADS = 1
GRAM_HEADER = struct.Struct("<4sHBII")  # magic, version, kind, bins, frames


# The speed reference: interpreter start-up, the numpy import and a first
# touch of 320 MB, the costs that dominate replaycm's short commands and that
# the shared host slows and speeds up.  It never touches replaycm, so no
# change to the program can move it.  See README.md, "The speed reference".
REFERENCE = "import numpy as np\nnp.ones(40_000_000).sum()\n"


class CheckFailed(Exception):
    """A command exited non-zero or its output failed a check."""


@dataclass
class Command:
    label: str
    verb: str
    phase: str
    t0: float
    t1: float
    rss_mb: float
    rc: int
    stdout: str
    error: str
    group: str  # "setup<r>" or "iter<i>": the set-up repeat or timed pass it belongs to
    work: float = 0.0  # items the command produced: wavs, grams, samples, ...
    spans: Path | None = None

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


@dataclass
class Session:
    """Launches replaycm commands for one benchmark run and records them."""

    checkout: Path
    work: Path
    deadline: float
    jobs: int
    traced: bool = False
    phase: str = "setup"
    group: str = ""
    commands: list = field(default_factory=list)
    eval_result: tuple | None = None  # (eer, min_tdcf) of the last evaluate
    reference_each: bool = False  # launch the reference before each command
    references: list = field(default_factory=list)  # wall times of the reference

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.checkout / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        return env

    def launch(self, argv) -> tuple:
        """Run argv to completion; returns (t0, t1, rc, maxrss_mb, out, err)."""
        out_path = self.work / "last.out"
        err_path = self.work / "last.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env(),
                                    cwd=self.work)
            timer = threading.Timer(max(self.deadline - t0, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return (t0, t1, proc.returncode, usage.ru_maxrss / 1024.0,
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))

    def reference(self) -> None:
        """Launch the speed reference once and record its wall time."""
        t0, t1, rc, _, _, err = self.launch([sys.executable, "-c", REFERENCE])
        if rc != 0:
            raise CheckFailed(f"speed reference: exit code {rc}: {err.strip()[-300:]}")
        self.references.append(t1 - t0)

    def run(self, label: str, *args: str) -> Command:
        if self.reference_each:
            self.reference()
        spans = None
        if self.traced:
            spans = self.work / f"spans-{len(self.commands):03d}.json"
            argv = [sys.executable, str(TRACER), str(spans), *args]
        else:
            argv = [sys.executable, "-m", "replaycm.cli", *args]
        t0, t1, rc, rss, out, err = self.launch(argv)
        error = next((ln for ln in err.splitlines() if ln.startswith("error:")), "")
        cmd = Command(label, args[0], self.phase, t0, t1, rss, rc, out, error, self.group,
                      spans=spans)
        self.commands.append(cmd)
        if rc != 0:
            detail = error or (err.strip().splitlines() or ["no diagnostic"])[-1]
            raise CheckFailed(f"{label}: exit code {rc}: {detail}")
        return cmd


def digest(path: Path) -> str:
    """sha256 of a file, or of a directory's relative names and contents."""
    h = hashlib.sha256()
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    for f in files:
        h.update(str(f.relative_to(path.parent if path.is_file() else path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def read_protocol(path: Path) -> list:
    return [ln.split() for ln in path.read_text(encoding="ascii").splitlines() if ln.strip()]


# ---------------------------------------------------------------------------
# commands with their output checks


def simulate(s: Session, d: Path, sources: int, utts: int, seed: int) -> Path:
    corpus = d / "corpus"
    cmd = s.run("simulate", "simulate", "--out", str(corpus), "--sources", str(sources),
                "--utts", str(utts), "--seed", str(seed))
    entries = []
    for split in SPLITS:
        entries += read_protocol(corpus / f"protocol_{split}.txt")
    wavs = sorted(p.stem for p in (corpus / "wav").glob("*.wav"))
    if wavs != sorted(e[0] for e in entries) or len(entries) != sources * utts * 10:
        raise CheckFailed(f"simulate: {len(wavs)} wavs for {len(entries)} protocol lines")
    for e in entries:
        if (corpus / "wav" / f"{e[0]}.wav").read_bytes()[:4] != b"RIFF":
            raise CheckFailed(f"simulate: {e[0]}.wav is not a RIFF file")
    (d / "protocol_all.txt").write_text("".join(" ".join(e) + "\n" for e in entries),
                                        encoding="ascii")
    cmd.work = len(entries)
    return corpus


def extract(s: Session, kind: str, protocol: Path, corpus: Path, out: Path,
            bin_stride: int = 1, frame_stride: int = 1, jobs: int = 1) -> None:
    cmd = s.run(f"extract {kind}", "extract", "--feature", kind, "--protocol", str(protocol),
                "--wav-dir", str(corpus / "wav"), "--out", str(out),
                "--bin-stride", str(bin_stride), "--frame-stride", str(frame_stride),
                "--jobs", str(jobs))
    ids = [e[0] for e in read_protocol(protocol)]
    manifest = dict(ln.split() for ln in
                    (out / "features.manifest").read_text(encoding="ascii").splitlines())
    shape = (-(-FULL_BINS[kind] // bin_stride), -(-FULL_FRAMES // frame_stride))
    for utt in ids:
        if utt not in manifest:
            raise CheckFailed(f"extract {kind}: {utt} missing from the manifest")
        check_gram(out / manifest[utt], kind, shape, f"extract {kind}")
    cmd.work = len(ids)


def check_gram(path: Path, kind: str, shape: tuple, label: str) -> None:
    with open(path, "rb") as fh:
        head = fh.read(GRAM_HEADER.size)
    if len(head) != GRAM_HEADER.size:
        raise CheckFailed(f"{label}: {path.name} has a truncated header")
    magic, _, code, bins, frames = GRAM_HEADER.unpack(head)
    if magic != b"FGRM" or code != KIND_CODES[kind] or (bins, frames) != shape:
        raise CheckFailed(f"{label}: {path.name} is kind {code} {bins}x{frames}, "
                          f"expected {kind} {shape[0]}x{shape[1]}")
    if path.stat().st_size != GRAM_HEADER.size + 4 * bins * frames:
        raise CheckFailed(f"{label}: {path.name} has {path.stat().st_size} bytes")


def train(s: Session, label: str, feats: Path, p_train: Path, p_dev: Path,
          config: Path, epochs: int, out: Path) -> None:
    cmd = s.run(label, "train", "--feature-dir", str(feats), "--protocol-train", str(p_train),
                "--protocol-dev", str(p_dev), "--objective", "bfl", "--gamma", "2",
                "--config", str(config), "--out", str(out))
    if out.read_bytes()[:4] != b"RCMC":
        raise CheckFailed(f"{label}: {out.name} is not a checkpoint")
    cmd.work = len(read_protocol(p_train)) * epochs


def check_scores(path: Path, protocol: Path, label: str) -> None:
    """Every protocol utterance scored exactly once, with a finite 6-decimal score."""
    seen = set()
    for ln in path.read_text(encoding="ascii").splitlines():
        m = SCORE_LINE.match(ln)
        if not m or m.group(1) in seen:
            raise CheckFailed(f"{label}: bad or repeated score line {ln!r}")
        seen.add(m.group(1))
    want = {e[0] for e in read_protocol(protocol)}
    if seen != want:
        raise CheckFailed(f"{label}: {len(seen ^ want)} utterances scored wrongly or not at all")


def score(s: Session, label: str, ckpt: Path, feats: Path, protocol: Path, out: Path,
          jobs: int = 1) -> None:
    cmd = s.run(label, "score", "--ckpt", str(ckpt), "--feature-dir", str(feats),
                "--protocol", str(protocol), "--out", str(out), "--jobs", str(jobs))
    check_scores(out, protocol, label)
    cmd.work = len(read_protocol(protocol))


def fuse(s: Session, evals: list, devs: list, p_dev: Path, p_eval: Path, out: Path) -> None:
    s.run("fuse", "fuse", "--method", "lr", "--scores", *map(str, evals),
          "--dev-scores", *map(str, devs), "--dev-protocol", str(p_dev), "--out", str(out))
    check_scores(out, p_eval, "fuse")


def evaluate(s: Session, scores: Path, protocol: Path) -> tuple:
    cmd = s.run("evaluate", "evaluate", "--scores", str(scores), "--protocol", str(protocol))
    lines = cmd.stdout.strip().splitlines()
    m = EVAL_LINE.match(lines[0]) if len(lines) == 1 else None
    if not m:
        raise CheckFailed(f"evaluate: expected one 'eer=... min_tdcf=...' line, got {lines!r}")
    return float(m.group(1)), float(m.group(2))


def breakdown(s: Session, scores: Path, protocol: Path) -> None:
    cmd = s.run("breakdown", "breakdown", "--scores", str(scores), "--protocol", str(protocol))
    rows = [ln.split("\t") for ln in cmd.stdout.strip().splitlines()]
    if rows[:1] != [["attack_code", "eer", "min_tdcf", "n_spoof"]] or \
            tuple(r[0] for r in rows[1:]) != ATTACK_CODES:
        raise CheckFailed("breakdown: the table does not list the nine attack codes")


def saliency(s: Session, ckpt: Path, gram: Path, out: Path, shape: tuple) -> None:
    cmd = s.run("saliency", "saliency", "--ckpt", str(ckpt), "--feature", str(gram),
                "--out", str(out))
    check_gram(out, "stft", shape, "saliency")
    cmd.work = 1


def write_subset(src: Path, dst: Path, n: int) -> Path:
    dst.write_text("".join(" ".join(e) + "\n" for e in read_protocol(src)[:n]), encoding="ascii")
    return dst


def write_config(path: Path, epochs: int) -> Path:
    path.write_text(f"[train]\nlr = 2e-3\nbatch_size = 16\nmax_epochs = {epochs}\nseed = 1\n",
                    encoding="ascii")
    return path


# ---------------------------------------------------------------------------
# workloads: set-up builds the inputs in ``d``; the timed part reads them and
# writes into ``it``.  Each returns {artefact: digest}.


class Workload:
    name = ""
    why = ""
    sources = utts = 0

    def setup(self, s: Session, d: Path, seed: int) -> dict:
        corpus = simulate(s, d, self.sources, self.utts, seed)
        return {"corpus": digest(corpus)}

    def timed(self, s: Session, d: Path, it: Path) -> dict:
        raise NotImplementedError


class Detect(Workload):
    """The paper's two-system experiment at desk scale."""

    name = "detect"
    why = ("two BFL ResNets on 65x50 STFT/MGD grams, scoring, LR fusion, saliency: "
           "training, inference and start-up")
    sources, utts = 8, 1
    epochs = 2
    strides = (8, 10)

    @property
    def shape(self) -> tuple:
        return (-(-513 // self.strides[0]), -(-FULL_FRAMES // self.strides[1]))

    def timed(self, s: Session, d: Path, it: Path) -> dict:
        corpus = d / "corpus"
        p = {split: corpus / f"protocol_{split}.txt" for split in SPLITS}
        cfg = write_config(it / "detect.cfg", self.epochs)
        out = {}
        for kind in ("stft", "mgd"):
            extract(s, kind, d / "protocol_all.txt", corpus, it / kind, *self.strides)
            out[f"grams {kind}"] = digest(it / kind)
        for kind in ("stft", "mgd"):
            ckpt = it / f"{kind}.ckpt"
            train(s, f"train {kind}", it / kind, p["train"], p["dev"], cfg, self.epochs, ckpt)
            out[f"ckpt {kind}"] = digest(ckpt)
            for split in ("dev", "eval"):
                path = it / f"{kind}_{split}.txt"
                score(s, f"score {kind} {split}", ckpt, it / kind, p[split], path)
                out[f"scores {kind} {split}"] = digest(path)
        fused = it / "fused_eval.txt"
        fuse(s, [it / "stft_eval.txt", it / "mgd_eval.txt"],
             [it / "stft_dev.txt", it / "mgd_dev.txt"], p["dev"], p["eval"], fused)
        out["scores fused eval"] = digest(fused)
        s.eval_result = evaluate(s, fused, p["eval"])
        breakdown(s, fused, p["eval"])
        utt = next(e[0] for e in read_protocol(p["eval"]) if e[2] == "spoof")
        sal = it / f"saliency_{utt}.fgram"
        saliency(s, it / "stft.ckpt", it / "stft" / f"{utt}.fgram", sal, self.shape)
        out[f"saliency {utt}"] = digest(sal)
        return out


class Frontends(Workload):
    """All four front-ends at full resolution; no model runs."""

    name = "frontends"
    why = ("full-resolution STFT, GD and MGD grams with --jobs, CQT grams of two dev "
           "utterances: front-ends and WAV I/O")
    sources, utts = 3, 1
    cqt_utts = 2

    def timed(self, s: Session, d: Path, it: Path) -> dict:
        # CQT runs with one job: with two, both workers often build the kernel
        # at once, and whether they do swings the command's wall time by ~60%
        # and its peak RSS by ~30% from run to run.  It runs on two dev
        # utterances because its memory-bound sparse products slow and speed
        # up with the shared host in ways the speed reference does not follow;
        # with the whole dev split the spread of wall_s over ten seeds reached
        # 0.24 (see README.md).
        cqt = write_subset(d / "corpus" / "protocol_dev.txt", it / "cqt_subset.txt",
                           self.cqt_utts)
        out = {}
        for kind, protocol, jobs in (("stft", d / "protocol_all.txt", s.jobs),
                                     ("gd", d / "protocol_all.txt", s.jobs),
                                     ("mgd", d / "protocol_all.txt", s.jobs),
                                     ("cqt", cqt, 1)):
            extract(s, kind, protocol, d / "corpus", it / kind, jobs=jobs)
            out[f"grams {kind}"] = digest(it / kind)
            shutil.rmtree(it / kind)
        return out


WORKLOADS = {w.name: w for w in (Detect(), Frontends())}
