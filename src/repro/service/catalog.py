"""Named inventory + submission schema of the campaign service.

Service submissions travel as JSON (over the NDJSON protocol and into
the store's ``params`` column), so campaigns are described by *names* —
DUT names, config names, workload names, fault names — and this module
owns the authoritative name registries (the CLI shares them) plus the
validation/normalisation step that turns a raw request into a
:class:`Submission`:

* unknown kinds/names are rejected loudly with the valid choices;
* defaults are filled in, so two requests that differ only in spelled-
  out defaults normalise to the same params document;
* ``"all"`` fault selections expand to the explicit catalogue list;

and the resolved configs + normalised params feed
:func:`~repro.service.fingerprint.config_fingerprint` — the store's
dedup key.  Spec building reuses the exact builders the one-shot
campaign helpers use (``fuzz_specs``, ``fault_specs``, …), which is what
makes a service-run campaign byte-identical to its CLI twin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..comm import FPGA_VU19P, PALLADIUM, VERILATOR_16T
from ..core import (
    CONFIG_B,
    CONFIG_BN,
    CONFIG_BNSD,
    CONFIG_COUPLED,
    CONFIG_FIXED,
    CONFIG_Z,
)
from ..dut import (
    FAULT_CATALOGUE,
    NUTSHELL,
    XIANGSHAN_DEFAULT,
    XIANGSHAN_DUAL,
    XIANGSHAN_MINIMAL,
    fault_by_name,
)
from .fingerprint import config_fingerprint
from .render import render_fuzz, render_ladder

DUTS = {
    "nutshell": NUTSHELL,
    "xiangshan-minimal": XIANGSHAN_MINIMAL,
    "xiangshan": XIANGSHAN_DEFAULT,
    "xiangshan-dual": XIANGSHAN_DUAL,
}
CONFIGS = {
    "Z": CONFIG_Z,
    "B": CONFIG_B,
    "BIN": CONFIG_BN,
    "EBINSD": CONFIG_BNSD,
    "FIXED": CONFIG_FIXED,
    "COUPLED": CONFIG_COUPLED,
}
PLATFORMS = {
    "palladium": PALLADIUM,
    "fpga": FPGA_VU19P,
    "verilator": VERILATOR_16T,
}

SUBMISSION_KINDS = ("fuzz", "fault", "ladder", "sweep")

#: Per-kind parameter defaults; normalisation fills these in so default-
#: equal submissions share one canonical params document (and therefore
#: one fingerprint).
_DEFAULTS: Dict[str, Dict[str, object]] = {
    "fuzz": {"seeds": 10, "start": 0, "length": 100, "fail_fast": False,
             "dut": "xiangshan", "config": "EBINSD"},
    "fault": {"faults": "all", "workload": "microbench", "trigger": 500,
              "dut": "xiangshan", "config": "EBINSD", "max_cycles": None},
    "ladder": {"workload": "linux_boot_like", "dut": "xiangshan",
               "configs": ["Z", "B", "BIN", "EBINSD"]},
    "sweep": {"workload": "microbench", "dut": "xiangshan",
              "configs": ["B"]},
}


def _lookup(registry: Dict[str, object], name: str, what: str):
    try:
        return registry[name]
    except KeyError:
        raise ValueError(f"unknown {what} {name!r}; valid: "
                         f"{', '.join(sorted(registry))}") from None


def _check_workload(name: str) -> str:
    from ..workloads import available

    if name not in available():
        raise ValueError(f"unknown workload {name!r}; valid: "
                         f"{', '.join(available())}")
    return name


def _fault_names(selection) -> List[str]:
    if selection == "all":
        return [spec.name for spec in FAULT_CATALOGUE]
    names = list(selection)
    for name in names:
        fault_by_name(name)  # raises KeyError listing the valid names
    return names


@dataclass(frozen=True)
class Submission:
    """One validated campaign request, ready to queue.

    ``params`` is the canonical (defaults-filled, names-resolved-and-
    validated) JSON document that the store persists; rebuilding a
    Submission from stored params yields identical specs — the property
    crash recovery relies on.
    """

    kind: str
    params: Dict[str, object] = field(default_factory=dict)
    fingerprint: str = ""

    @property
    def short_circuit(self) -> bool:
        return bool(self.params.get("fail_fast", False))

    # ------------------------------------------------------------------
    def specs(self):
        """The campaign's job specs (via the shared spec builders)."""
        builder = getattr(self, f"_specs_{self.kind}")
        return builder()

    def render(self, campaign) -> str:
        """The deterministic report of a finished campaign."""
        if self.kind == "fuzz":
            return render_fuzz(campaign, self.params["start"],
                               self.params["seeds"])
        if self.kind == "ladder":
            configs = [CONFIGS[name] for name in self.params["configs"]]
            text, _ok = render_ladder(campaign, DUTS[self.params["dut"]],
                                      configs)
            return text
        # fault / sweep: the executor's canonical aggregated report.
        return campaign.render()

    # ------------------------------------------------------------------
    def _specs_fuzz(self):
        from ..workloads import fuzz_specs

        p = self.params
        return fuzz_specs(range(p["start"], p["start"] + p["seeds"]),
                          length=p["length"], dut_config=DUTS[p["dut"]],
                          diff_config=CONFIGS[p["config"]])

    def _specs_fault(self):
        from ..parallel import FaultCase, fault_specs
        from ..workloads import build

        p = self.params
        workload = build(p["workload"])
        max_cycles = p["max_cycles"] or workload.max_cycles
        cases = [FaultCase(fault=name, image=workload.image,
                           trigger=p["trigger"], max_cycles=max_cycles)
                 for name in p["faults"]]
        return fault_specs(cases, DUTS[p["dut"]], CONFIGS[p["config"]])

    def _specs_ladder(self):
        from ..parallel import ladder_specs

        p = self.params
        return ladder_specs(p["workload"], DUTS[p["dut"]],
                            [CONFIGS[name] for name in p["configs"]])

    def _specs_sweep(self):
        from ..analysis import measured_point_specs

        p = self.params
        dut = DUTS[p["dut"]]
        cells = [(p["workload"], dut, CONFIGS[name])
                 for name in p["configs"]]
        return measured_point_specs(cells)


def build_submission(kind: str, params: Dict[str, object]) -> Submission:
    """Validate and normalise one raw submission request.

    Raises ``ValueError`` for unknown kinds, parameters or names (the
    message lists the valid choices), so protocol handlers can echo it
    straight back to the client.
    """
    if kind not in _DEFAULTS:
        raise ValueError(f"unknown submission kind {kind!r}; valid: "
                         f"{', '.join(SUBMISSION_KINDS)}")
    defaults = _DEFAULTS[kind]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(
            f"unknown {kind} parameter(s): {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(defaults))}")
    merged = {**defaults, **params}

    # Resolve + validate names (errors propagate with the valid lists).
    dut = _lookup(DUTS, merged["dut"], "dut")
    if kind in ("ladder", "sweep"):
        merged["configs"] = [name for name in merged["configs"]]
        resolved_configs = [_lookup(CONFIGS, name, "config")
                            for name in merged["configs"]]
        merged["workload"] = _check_workload(merged["workload"])
        fingerprint = config_fingerprint(
            dut, None, kind=kind, configs=resolved_configs,
            **{key: merged[key] for key in defaults
               if key not in ("dut", "configs")})
        return Submission(kind=kind, params=merged,
                          fingerprint=fingerprint)

    config = _lookup(CONFIGS, merged["config"], "config")
    if kind == "fuzz":
        merged["seeds"] = int(merged["seeds"])
        merged["start"] = int(merged["start"])
        merged["length"] = int(merged["length"])
        merged["fail_fast"] = bool(merged["fail_fast"])
        if merged["seeds"] <= 0:
            raise ValueError("fuzz needs seeds >= 1")
    elif kind == "fault":
        merged["workload"] = _check_workload(merged["workload"])
        merged["faults"] = _fault_names(merged["faults"])
    fingerprint = config_fingerprint(
        dut, config, kind=kind,
        **{key: merged[key] for key in defaults
           if key not in ("dut", "config")})
    return Submission(kind=kind, params=merged, fingerprint=fingerprint)
