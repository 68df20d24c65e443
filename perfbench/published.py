"""Published configurations the benchmark replays, kept here so the
benchmark does not depend on the test suite's helpers.

Deck strings put the top of the deck leftmost; player A leads.
"""

# Ultra-long published matches: (setting, deck_a, deck_b, winner, tricks).
GOLDEN_MATCHES = (
    ("40,3", "[C1CC1CC32C3CCC3C2CCC]", "[CC2CCC2CC1CC3CC1CCCC]", "A", 420),
    ("40,2", "[CCCC1C1CCCCCCCCCCCCC]", "[C22CCCC1CC2CCCC1CCC2]", "B", 700),
    ("52,4", "[CCCC3CCC4CC2C4CC114CCCCCC1]", "[CCCCC33CCCCCCCCC4C13C2C2C2]", "A", 1106),
    ("52,4", "[CCC41CC2CCCCCCCCC243211C23]", "[CCCCC4CCCC31C3CCCCCCCC4CCC]", "B", 1164),
)

# Known infinite matches with their exact (transient, period); the (40,1)
# transient is not part of the published claim, only its period of 20.
CLASSIC_52_4 = ("52,4", "[CCC3CCC2C3241CCCCC441CC1CC]", "[CCCCCCCCCC2CCCC32C1CCCCC34]")
CLASSIC_52_4_LOOP = (4, 62)
INF_40_1 = ("40,1", "[CCCCCCCCCCC1CCCCCC1C]", "[1CCCCCCCCCCCCC1CCCCC]")
INF_40_1_PERIOD = 20

# Table-2 non-terminating configurations: (setting, deck_a, deck_b).
TABLE_2 = (
    ("12,1", "[1CC1CC1CC]", "[C1C]"),
    ("12,1", "[C1C1CC1CC]", "[C1C]"),
    ("20,2", "[1CC]", "[C2C2C1CC1CC2C2C1C]"),
    ("20,2", "[1CC2C2C1CC2C2C1CC]", "[C1C]"),
    ("24,1", "[1CCCCCCCC1CC1CCCCCCCC]", "[C1C]"),
    ("24,2", "[1CCCCC]", "[CCCC1CC2C21CC2C21C]"),
    ("28,1", "[1CCCCCC1CCCCCC]", "[CC1CCCCCCCCC1C]"),
    ("28,3", "[1CC3C2C1CC2C2C3C3C1CC2C]", "[C3C1C]"),
    ("32,2", "[1CC2C1CC1CCCCCCCC2CCCC2CCCC]", "[C1CC2]"),
    ("32,3", "[2C1CC2C]", "[C3C3C331CC2CCCC1CC2CCCC1C]"),
    ("36,1", "[1CC]", "[CCCCCCC1CC1CCCCC1CCCCCCCCCCCCCCCC]"),
    ("36,1", "[1CCCCCCCCCCCCCC1CC1CCCCCCCCCCCCCC]", "[C1C]"),
    ("40,1", "[1CCCCCCCCCCCCCCCCC1CCCCC1CCCCCCCC]", "[CCCCC1C]"),
    ("52,1", "[1CCCCC1CCCCCCCCCCCCCCCCC1CCCCCCCCCCCCCCCCCCCCCCCC]", "[C1C]"),
)

PUBLISHED_LOOPS = (CLASSIC_52_4, INF_40_1) + TABLE_2
