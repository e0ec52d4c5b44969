"""Full-reproduction report generation.

Runs every figure's data generator and renders one self-contained
markdown report -- the programmatic counterpart of EXPERIMENTS.md, for
users who change workloads/parameters and want the whole evaluation
regenerated in one call.

The report intentionally contains only *measured* values plus the
paper's published numbers for side-by-side reading; interpretation
lives in EXPERIMENTS.md.
"""

from __future__ import annotations

import io
from typing import Dict, Optional, Sequence

from repro.experiments import figures

__all__ = ["generate_report", "render_rows"]

#: The paper's published values, quoted next to each regenerated series.
_PAPER_NOTES = {
    "fig1": "CoEfficient 76.2 s (80 slots) / 92.3 s (120) vs "
            "FSPEC 1670 / 1910 s",
    "fig2": "same ordering as Fig. 1, larger delays",
    "fig3": "CoEfficient +56.2/55.3/53.8/52.2 % utilization at "
            "25/50/75/100 minislots",
    "fig4": "static: CoEff 4.7/3.8 vs FSPEC 8.2/5.8 ms (BER-7); "
            "dynamic: CoEff 59-67 % lower",
    "fig5": "CoEfficient 4.8 % (BER-7) / 3.2 % (BER-9) vs "
            "FSPEC 21.3 / 19.5 %",
}


def render_rows(rows: Sequence[Dict], title: str,
                note: Optional[str] = None) -> str:
    """Render a data series as a markdown table."""
    out = io.StringIO()
    out.write(f"### {title}\n\n")
    if note:
        out.write(f"*Paper: {note}*\n\n")
    if not rows:
        out.write("(no rows)\n\n")
        return out.getvalue()
    columns = list(rows[0].keys())
    out.write("| " + " | ".join(columns) + " |\n")
    out.write("|" + "|".join("---" for __ in columns) + "|\n")
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:.4f}")
            else:
                cells.append(str(value))
        out.write("| " + " | ".join(cells) + " |\n")
    out.write("\n")
    return out.getvalue()


def generate_report(
    duration_ms: float = 500.0,
    include_running_time: bool = True,
) -> str:
    """Regenerate every evaluation series and render the report.

    Args:
        duration_ms: Horizon for the fixed-horizon figures (3-5).
        include_running_time: Include the (slower) completion-mode
            Figures 1-2.

    Returns:
        The report as a markdown string.
    """
    out = io.StringIO()
    out.write("# CoEfficient reproduction report\n\n")
    out.write(f"(seed {figures.SEED}, horizon {duration_ms:g} ms; see "
              f"EXPERIMENTS.md for interpretation)\n\n")

    out.write(render_rows(figures.table2_bbw_rows(),
                          "Table II -- BBW message parameters"))
    out.write(render_rows(figures.table3_acc_rows(),
                          "Table III -- ACC message parameters"))

    if include_running_time:
        out.write(render_rows(
            figures.fig1_2_running_time(
                ber=1e-7, instance_limits=(10,), synthetic_counts=(20,),
                static_slot_options=(80, 120)),
            "Figure 1 -- running time, BER = 1e-7",
            _PAPER_NOTES["fig1"],
        ))
        out.write(render_rows(
            figures.fig1_2_running_time(
                ber=1e-9, instance_limits=(10,), synthetic_counts=(20,),
                static_slot_options=(80,)),
            "Figure 2 -- running time, BER = 1e-9",
            _PAPER_NOTES["fig2"],
        ))

    from repro.experiments.plots import ascii_bar_chart, ascii_line_chart

    fig3_rows = figures.fig3_bandwidth_utilization(duration_ms=duration_ms)
    out.write(render_rows(fig3_rows, "Figure 3 -- bandwidth utilization",
                          _PAPER_NOTES["fig3"]))
    out.write("```\n" + ascii_bar_chart(
        fig3_rows, "minislots", "bandwidth_utilization",
        title="useful utilization by minislot count") + "```\n\n")

    fig4_rows = figures.fig4_transmission_latency(duration_ms=duration_ms)
    out.write(render_rows(fig4_rows, "Figure 4 -- transmission latency",
                          _PAPER_NOTES["fig4"]))
    synthetic_relaxed = [
        r for r in fig4_rows
        if r["figure"] == "4ac" and r["ber"] >= 1e-8
    ]
    if synthetic_relaxed:
        out.write("```\n" + ascii_line_chart(
            synthetic_relaxed, "minislots", "dynamic_latency_ms",
            title="dynamic latency vs minislots (synthetic, relaxed goal)")
            + "```\n\n")

    fig5_rows = figures.fig5_deadline_miss_ratio(duration_ms=duration_ms)
    out.write(render_rows(fig5_rows, "Figure 5 -- deadline miss ratio",
                          _PAPER_NOTES["fig5"]))
    relaxed = [r for r in fig5_rows if r["ber"] >= 1e-8]
    if relaxed:
        out.write("```\n" + ascii_bar_chart(
            relaxed, "minislots", "deadline_miss_ratio",
            title="miss ratio by minislot count (relaxed goal)")
            + "```\n\n")
    return out.getvalue()
