"""Process-chaos harness: deterministic worker kills, hangs and OOMs.

The supervised executor (:mod:`repro.parallel.executor`) claims that a
campaign survives worker-process failure — a claim that is only worth
anything if it is *exercised*.  This module injects the three failure
modes a real simulator farm produces, at chosen job indices, fully
deterministically:

* ``kill`` — the worker SIGKILLs itself mid-job (a segfaulting
  simulator, the kernel OOM killer).  Breaks the whole
  ``ProcessPoolExecutor``; exercises pool rebuild, re-queue and — when
  repeated — poison quarantine.
* ``hang`` — the worker blocks ``SIGALRM`` and sleeps, defeating the
  worker-side watchdog (a wedged ioctl, a deadlocked runtime).
  Exercises the parent-side timeout: the supervisor must kill the
  worker and charge the hang to the right job.
* ``oom`` — the runner raises :class:`MemoryError` in-process (an
  allocation failure the interpreter survives).  Exercises the ordinary
  retry/ERROR path: the pool must *not* be restarted for this.

Mechanics: :func:`ChaosPlan.wrap` re-writes a spec stream so faulted
indices run under the registered ``"chaos"`` job kind, which counts the
job's attempts in a scratch file (the counter must survive the worker
being SIGKILLed, so it lives on disk, not in memory), injects the fault
for the first ``times`` attempts, and delegates to the original
runner afterwards.  Labels are preserved and the wrapper adds nothing
to the summary, so a transiently-faulted campaign's report is
**value-identical** to a fault-free run — the property the chaos matrix
in ``tests/test_chaos.py`` pins.

``times=POISON`` makes the fault permanent: the job can never complete
and must end quarantined (executor) or reported (slicing) —
recovered-or-reported, never silent loss.
"""

from __future__ import annotations

import os
import random
import signal
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence

from ..parallel.executor import CampaignExecutor
from ..parallel.jobs import JobSpec, register_runner, runner_for

__all__ = ["CHAOS_KINDS", "POISON", "ChaosExecutor", "ChaosFault",
           "ChaosPlan", "chaos_specs"]

#: The injectable failure modes.
CHAOS_KINDS = ("kill", "hang", "oom")

#: Sentinel ``times``: the fault fires on every attempt, forever.
POISON = 1_000_000


@dataclass(frozen=True)
class ChaosFault:
    """One planned fault: ``kind`` injected on the first ``times``
    attempts of a job (later attempts run clean)."""

    kind: str
    times: int = 1
    #: How long a ``hang`` blocks; far beyond any parent-side budget by
    #: default, so a hung worker never "recovers" on its own.
    hang_s: float = 600.0

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(f"unknown chaos kind {self.kind!r}; "
                             f"one of {CHAOS_KINDS}")
        if self.times < 1:
            raise ValueError("times must be >= 1")


class ChaosPlan:
    """Which jobs fail, how, and how often — plus the scratch directory
    holding the cross-process attempt counters."""

    def __init__(self, faults: Dict[int, ChaosFault],
                 scratch_dir: Optional[str] = None) -> None:
        self.faults = dict(faults)
        if scratch_dir is not None:
            self.scratch_dir = str(scratch_dir)
            os.makedirs(self.scratch_dir, exist_ok=True)
        else:
            self.scratch_dir = tempfile.mkdtemp(prefix="repro-chaos-")

    @classmethod
    def seeded(cls, seed: int, jobs: int, rate: float,
               scratch_dir: Optional[str] = None,
               kinds: Sequence[str] = CHAOS_KINDS,
               times: int = 1) -> "ChaosPlan":
        """Derive a fault plan from a seed: each of ``jobs`` indices is
        faulted with probability ``rate``, kind drawn uniformly.  Same
        seed, same plan — chaos runs are replayable."""
        rng = random.Random(f"chaos:{seed}")
        faults = {}
        for index in range(jobs):
            roll = rng.random()
            kind = kinds[rng.randrange(len(kinds))]
            if roll < rate:
                faults[index] = ChaosFault(kind=kind, times=times)
        return cls(faults, scratch_dir)

    # ------------------------------------------------------------------
    def token(self, index: int) -> str:
        """The attempt-counter file of job ``index``."""
        return os.path.join(self.scratch_dir, f"chaos-job-{index}.attempts")

    def reset(self) -> None:
        """Forget all attempt counts (start the next run fresh)."""
        for index in self.faults:
            try:
                os.unlink(self.token(index))
            except FileNotFoundError:
                pass

    def wrap(self, specs: Iterable[JobSpec]) -> Iterator[JobSpec]:
        """Re-write a spec stream, lazily, faulting the planned indices.

        Wrapped specs keep their label and run the original runner once
        the fault budget is spent, so reports are value-identical to a
        fault-free run for every surviving job.  Safe as the
        ``spec_wrapper`` seam of :func:`repro.parallel.slicing.sliced_run`.
        """
        for index, spec in enumerate(specs):
            fault = self.faults.get(index)
            if fault is None:
                yield spec
                continue
            yield JobSpec(
                kind="chaos", label=spec.label,
                params={"inner_kind": spec.kind,
                        "inner_params": dict(spec.params),
                        "chaos_kind": fault.kind,
                        "chaos_times": fault.times,
                        "chaos_hang_s": fault.hang_s,
                        "chaos_token": self.token(index)})


def chaos_specs(specs: Iterable[JobSpec],
                plan: ChaosPlan) -> Iterator[JobSpec]:
    """Functional alias of :meth:`ChaosPlan.wrap`."""
    return plan.wrap(specs)


class ChaosExecutor(CampaignExecutor):
    """A :class:`CampaignExecutor` that chaos-wraps every spec stream.

    A drop-in wherever a caller drives its own executor: the job specs
    and the folding are those of a plain executor, only the faulted
    indices run under the ``"chaos"`` job kind.
    """

    def __init__(self, plan: ChaosPlan, **kwargs) -> None:
        super().__init__(**kwargs)
        self.plan = plan

    def run(self, specs, on_result=None):
        return super().run(self.plan.wrap(specs), on_result=on_result)


# ----------------------------------------------------------------------
# the worker-side injector
# ----------------------------------------------------------------------
def _bump_attempts(token: str) -> int:
    """Increment and return the on-disk attempt counter.

    Attempts of one job are strictly sequential (the supervisor never
    runs the same index twice concurrently), so plain read-write is
    race-free; the file survives the worker being SIGKILLed because the
    bump happens *before* the fault is injected.
    """
    try:
        with open(token) as handle:
            count = int(handle.read().strip() or 0)
    except (FileNotFoundError, ValueError):
        count = 0
    count += 1
    with open(token, "w") as handle:
        handle.write(str(count))
    return count


def _inject(kind: str, hang_s: float) -> None:
    if kind == "kill":
        # Self-SIGKILL: indistinguishable from a segfault or the kernel
        # OOM killer from the parent's point of view.
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "hang":
        # Block the worker-side alarm first: a real wedged worker does
        # not politely honour its own watchdog.  The parent-side budget
        # is the only thing that can reclaim this worker.
        if hasattr(signal, "pthread_sigmask") and hasattr(signal,
                                                          "SIGALRM"):
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        deadline = time.monotonic() + hang_s
        while time.monotonic() < deadline:
            time.sleep(min(1.0, max(deadline - time.monotonic(), 0.01)))
    elif kind == "oom":
        raise MemoryError("chaos: simulated worker out-of-memory")


@register_runner("chaos")
def _run_chaos(params):
    """The ``chaos`` job kind: inject, then delegate to the real runner."""
    attempt = _bump_attempts(params["chaos_token"])
    if attempt <= params["chaos_times"]:
        _inject(params["chaos_kind"], params["chaos_hang_s"])
    inner = dict(params["inner_params"])
    if "collect_metrics" in params:
        # The executor's collect_metrics wrapping lands on the *outer*
        # params; forward it so wrapped jobs produce the same summaries
        # (metrics included) as unwrapped ones.
        inner["collect_metrics"] = params["collect_metrics"]
    return runner_for(params["inner_kind"])(inner)
