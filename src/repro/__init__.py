"""Reproduction of *Campion: Debugging Router Configuration Differences*
(Tang et al., SIGCOMM 2021).

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.bdd` — from-scratch ROBDD engine (JavaBDD substitute),
* :mod:`repro.model` — vendor-independent configuration model (Batfish
  representation substitute), plus concrete policy evaluation,
* :mod:`repro.parsers` — Cisco IOS and Juniper JunOS parsers,
* :mod:`repro.encoding` — BDD encodings of packets, route
  advertisements, and per-component path equivalence classes,
* :mod:`repro.core` — the paper's contribution: SemanticDiff,
  StructuralDiff, HeaderLocalize, MatchPolicies, ConfigDiff, Present,
* :mod:`repro.baseline` — Minesweeper-style monolithic checker,
* :mod:`repro.srp` — stable-routing-problem simulator validating
  Theorem 3.3,
* :mod:`repro.workloads` — synthetic versions of the paper's evaluation
  networks (Figure 1, Table 6 data center, Table 8 university, §5.4
  ACL scaling).

Quick start::

    from repro.parsers import load_config
    from repro.core import config_diff, render_report

    report = config_diff(load_config("a.cfg"), load_config("b.cfg"))
    print(render_report(report))
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

# Lazy (PEP 562): ``import repro.cli`` must not load both vendor
# parsers and the analysis engine before it knows what the run needs.
__getattr__, __dir__, _exports = lazy_exports(
    __name__,
    {
        "core.config_diff": ("config_diff",),
        "core.present": ("render_report",),
        "parsers.cisco": ("parse_cisco",),
        "parsers.juniper": ("parse_juniper",),
        "parsers.loader": ("load_config", "parse_config"),
    },
)
__all__ = ["__version__", *_exports]
