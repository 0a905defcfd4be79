"""Claim: Figure 3 -- delivery ratio, data delivered, recall, precision.

Methods: RichNote vs FIFO/UTIL fixed at 5 s (L2) and 10 s (L3) previews,
swept over weekly data budgets of 1-100 MB (Section V-D1).

Expected shapes (paper):
* 3(a) RichNote delivers ~100% at every budget; baselines ramp up with
  budget (higher fixed level => slower ramp);
* 3(b) RichNote moves at least as many bytes as the baselines at low
  budgets (presentation adaptation fills the budget);
* 3(c) RichNote recall dominates;
* 3(d) RichNote precision at or above baselines, plateauing near the trace
  click base-rate because RichNote delivers everything.
"""

from repro.experiments.figures import figure3_and_4
from repro.experiments.reporting import render_series_table

BUDGETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


def test_fig3(world):
    figs = figure3_and_4(
        world.workload, BUDGETS, annotations=world.annotations, user_ids=world.users
    )
    print()
    for name in (
        "fig3a_delivery_ratio",
        "fig3b_delivered_mb",
        "fig3c_recall",
        "fig3d_precision",
    ):
        print(render_series_table(figs[name]))
        print()

    delivery = figs["fig3a_delivery_ratio"].series
    recall = figs["fig3c_recall"].series
    precision = figs["fig3d_precision"].series

    for budget in BUDGETS:
        # 3(a): RichNote ~100% everywhere; baselines starve at low budget.
        assert delivery["RichNote"][budget] > 0.95
        # 3(c): recall dominance.
        for baseline in ("FIFO-L2", "FIFO-L3", "UTIL-L2", "UTIL-L3"):
            assert recall["RichNote"][budget] >= recall[baseline][budget] - 0.02
    assert delivery["FIFO-L3"][1.0] < 0.3
    assert delivery["UTIL-L3"][1.0] < 0.3
    # Baselines ramp with budget and the cheaper level ramps faster.
    assert delivery["FIFO-L3"][100.0] > delivery["FIFO-L3"][1.0]
    assert delivery["FIFO-L2"][5.0] >= delivery["FIFO-L3"][5.0]
    # 3(d): RichNote precision above FIFO at starved budgets.
    assert precision["RichNote"][2.0] > precision["FIFO-L3"][2.0]
