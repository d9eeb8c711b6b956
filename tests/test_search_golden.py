"""Golden search telemetry: best base, best cost and node counts of dfs,
bnb and hashbnb under every cost on 30 seeded multisets.

The table pins how each search walks the tree, not only what it finds:
a change to pruning, tie-breaking or queue discipline that keeps every
result but visits the tree differently shows up here.  It was recorded
from the eager search that built every pushed child up front; searches
that build children lazily must reproduce it entry for entry.  hashbnb's
node counts come from the search that expands each product once.
"""

import pytest

from optibase import search
from optibase.cost import CostKind
from optibase.mixedradix import Multiset
from optibase.search import SearchConfig, find_base

MAX_ELEM = 1000

# (elements, primes_only, {(algorithm, cost): (best_base, best_cost,
#                                              nodes_expanded, nodes_pruned)})
GOLDEN = [
    ((792, 6469), True, {
        ("dfs", "digits"): ((2, 2, 3, 11, 2, 3, 2, 2, 2), 4, 241, 3608),
        ("dfs", "carry"): ((2, 2, 3, 11, 2, 3, 2, 2, 2), 4, 230, 3525),
        ("dfs", "comp"): ((2, 2, 2, 2, 2, 2, 2, 2, 3, 2, 2, 2), 0, 473, 3305),
        ("bnb", "digits"): ((2, 2, 3, 11, 2, 3, 2, 2, 2), 4, 122, 2714),
        ("bnb", "carry"): ((2, 2, 3, 11, 2, 3, 2, 2, 2), 4, 122, 2708),
        ("bnb", "comp"): ((2, 2, 2, 2, 2, 3, 2, 3, 11), 0, 110, 3140),
        ("hashbnb", "digits"): ((2, 2, 3, 11, 2, 3, 2, 2, 2), 4, 24, 1642),
        ("hashbnb", "carry"): ((2, 2, 3, 11, 2, 3, 2, 2, 2), 4, 24, 1638),
        ("hashbnb", "comp"): ((2, 2, 2, 2, 2, 3, 2, 3, 11), 0, 34, 1806),
    }),
    ((8, 13, 47, 75), False, {
        ("dfs", "digits"): ((2, 2, 3, 3, 2), 12, 28, 219),
        ("dfs", "carry"): ((2, 2, 3, 3, 2), 15, 39, 235),
        ("dfs", "comp"): ((2, 2, 3, 3, 2), 16, 27, 199),
        ("bnb", "digits"): ((2, 2, 3, 3, 2), 12, 14, 203),
        ("bnb", "carry"): ((2, 3, 6, 2), 15, 18, 221),
        ("bnb", "comp"): ((2, 2, 3, 3, 2), 16, 12, 186),
        ("hashbnb", "digits"): ((2, 2, 3, 3, 2), 12, 10, 179),
        ("hashbnb", "carry"): ((2, 3, 6, 2), 15, 11, 177),
        ("hashbnb", "comp"): ((2, 2, 3, 3, 2), 16, 8, 159),
    }),
    ((89, 445), True, {
        ("dfs", "digits"): ((89, 5), 2, 51, 250),
        ("dfs", "carry"): ((89, 5), 2, 46, 270),
        ("dfs", "comp"): ((89, 5), 0, 43, 219),
        ("bnb", "digits"): ((89, 5), 2, 2, 79),
        ("bnb", "carry"): ((89, 5), 2, 2, 77),
        ("bnb", "comp"): ((89, 5), 0, 2, 82),
        ("hashbnb", "digits"): ((89, 5), 2, 2, 79),
        ("hashbnb", "carry"): ((89, 5), 2, 2, 77),
        ("hashbnb", "comp"): ((89, 5), 0, 2, 82),
    }),
    ((11890, 31545), False, {
        ("dfs", "digits"): ((3, 3, 2, 3, 73, 2, 2, 2), 7, 2268, 253225),
        ("dfs", "carry"): ((3, 3, 3, 2, 73, 2, 2, 2), 7, 1759, 208400),
        ("dfs", "comp"): ((5, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3), 0, 1591, 64237),
        ("bnb", "digits"): ((9, 6, 73, 2, 4), 7, 864, 146865),
        ("bnb", "carry"): ((9, 6, 73, 2, 4), 7, 694, 121040),
        ("bnb", "comp"): ((5, 2, 2, 2, 4, 2, 2, 6, 2, 4), 0, 72, 18436),
        ("hashbnb", "digits"): ((9, 6, 73, 2, 4), 7, 64, 29777),
        ("hashbnb", "carry"): ((9, 6, 73, 2, 4), 7, 61, 27375),
        ("hashbnb", "comp"): ((5, 2, 2, 2, 4, 2, 2, 2, 2, 3, 4), 0, 29, 12828),
    }),
    ((16227, 74116), True, {
        ("dfs", "digits"): ((3, 3, 3, 3, 5, 2, 2, 3, 3, 5), 7, 789, 23760),
        ("dfs", "carry"): ((3, 3, 3, 3, 5, 2, 2, 3, 3, 5), 7, 635, 18422),
        ("dfs", "comp"): ((2, 2, 2, 2, 2, 2, 2, 2, 3, 2, 2, 2, 2, 2, 2), 0, 785, 8438),
        ("bnb", "digits"): ((3, 3, 3, 3, 5, 13, 2, 7), 7, 271, 16729),
        ("bnb", "carry"): ((3, 3, 3, 3, 5, 13, 2, 7), 7, 206, 13043),
        ("bnb", "comp"): ((3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 7), 0, 286, 7764),
        ("hashbnb", "digits"): ((3, 3, 3, 3, 5, 13, 2, 7), 7, 98, 7611),
        ("hashbnb", "carry"): ((3, 3, 3, 3, 5, 13, 2, 7), 7, 89, 6864),
        ("hashbnb", "comp"): ((3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 7), 0, 85, 4507),
    }),
    ((64, 597, 643, 971), False, {
        ("dfs", "digits"): ((2, 2, 2, 2, 2, 2, 3, 3), 15, 85, 4801),
        ("dfs", "carry"): ((2, 2, 2, 2, 4, 3, 3), 19, 103, 5158),
        ("dfs", "comp"): ((2, 2, 2, 2, 2, 2, 3, 3), 14, 45, 2944),
        ("bnb", "digits"): ((2, 2, 2, 2, 4, 3, 3), 15, 48, 3998),
        ("bnb", "carry"): ((2, 4, 8, 3, 3), 19, 63, 4367),
        ("bnb", "comp"): ((2, 2, 2, 2, 4, 3, 3), 14, 32, 2775),
        ("hashbnb", "digits"): ((2, 2, 2, 2, 4, 3, 3), 15, 16, 2856),
        ("hashbnb", "carry"): ((2, 4, 8, 3, 3), 19, 15, 2825),
        ("hashbnb", "comp"): ((2, 2, 2, 2, 4, 3, 3), 14, 14, 2403),
    }),
    ((6106, 28978), True, {
        ("dfs", "digits"): ((5, 61, 19, 5), 8, 245, 9669),
        ("dfs", "carry"): ((5, 61, 19, 5), 8, 281, 8374),
        ("dfs", "comp"): ((3, 11, 2, 2, 3, 3, 2, 2, 2, 2), 1, 178, 2999),
        ("bnb", "digits"): ((5, 61, 19, 5), 8, 73, 6346),
        ("bnb", "carry"): ((5, 61, 19, 5), 8, 51, 4077),
        ("bnb", "comp"): ((3, 11, 2, 2, 3, 3, 2, 2, 2, 2), 1, 15, 1304),
        ("hashbnb", "digits"): ((5, 61, 19, 5), 8, 54, 4400),
        ("hashbnb", "carry"): ((5, 61, 19, 5), 8, 43, 3416),
        ("hashbnb", "comp"): ((3, 11, 2, 2, 3, 3, 2, 2, 2, 2), 1, 15, 1304),
    }),
    ((148, 430, 554), False, {
        ("dfs", "digits"): ((2, 2, 2, 17, 2, 2), 12, 83, 3043),
        ("dfs", "carry"): ((2, 3, 23, 3), 13, 71, 2858),
        ("dfs", "comp"): ((2, 2, 2, 2, 2, 2, 2, 3), 13, 59, 2406),
        ("bnb", "digits"): ((2, 2, 2, 17, 3), 12, 46, 2700),
        ("bnb", "carry"): ((2, 3, 23, 3), 13, 24, 2119),
        ("bnb", "comp"): ((7, 3, 2, 3, 3), 13, 46, 2297),
        ("hashbnb", "digits"): ((2, 2, 2, 17, 3), 12, 23, 1811),
        ("hashbnb", "carry"): ((2, 3, 23, 3), 13, 16, 1646),
        ("hashbnb", "comp"): ((7, 3, 2, 3, 3), 13, 27, 1643),
    }),
    ((24, 40, 72, 88), True, {
        ("dfs", "digits"): ((2, 2, 2, 3, 3), 8, 19, 75),
        ("dfs", "carry"): ((2, 2, 2, 3, 3), 10, 20, 74),
        ("dfs", "comp"): ((2, 2, 3, 2, 3), 8, 29, 74),
        ("bnb", "digits"): ((2, 2, 2, 3, 3), 8, 12, 74),
        ("bnb", "carry"): ((2, 2, 2, 3, 3), 10, 13, 68),
        ("bnb", "comp"): ((2, 2, 3, 2, 3), 8, 22, 71),
        ("hashbnb", "digits"): ((2, 2, 2, 3, 3), 8, 9, 64),
        ("hashbnb", "carry"): ((2, 2, 2, 3, 3), 10, 9, 58),
        ("hashbnb", "comp"): ((2, 2, 3, 2, 3), 8, 12, 61),
    }),
    ((25, 48, 74, 82), False, {
        ("dfs", "digits"): ((2, 2, 2, 3, 3), 9, 26, 251),
        ("dfs", "carry"): ((2, 4, 3, 3), 10, 29, 238),
        ("dfs", "comp"): ((2, 2, 2, 3, 3), 7, 37, 213),
        ("bnb", "digits"): ((2, 4, 3, 3), 9, 9, 173),
        ("bnb", "carry"): ((2, 4, 3, 3), 10, 10, 184),
        ("bnb", "comp"): ((2, 4, 3, 3), 7, 22, 200),
        ("hashbnb", "digits"): ((2, 4, 3, 3), 9, 7, 171),
        ("hashbnb", "carry"): ((2, 4, 3, 3), 10, 7, 171),
        ("hashbnb", "comp"): ((2, 4, 3, 3), 7, 11, 181),
    }),
    ((8, 9, 73, 92), True, {
        ("dfs", "digits"): ((2, 2, 2, 3, 3), 9, 12, 66),
        ("dfs", "carry"): ((2, 2, 2, 3, 3), 11, 12, 63),
        ("dfs", "comp"): ((2, 2, 2, 3, 3), 7, 11, 54),
        ("bnb", "digits"): ((2, 2, 2, 3, 3), 9, 9, 61),
        ("bnb", "carry"): ((2, 2, 2, 3, 3), 11, 7, 53),
        ("bnb", "comp"): ((2, 2, 2, 3, 3), 7, 8, 52),
        ("hashbnb", "digits"): ((2, 2, 2, 3, 3), 9, 9, 63),
        ("hashbnb", "carry"): ((2, 2, 2, 3, 3), 11, 7, 55),
        ("hashbnb", "comp"): ((2, 2, 2, 3, 3), 7, 8, 52),
    }),
    ((438, 545, 697), False, {
        ("dfs", "digits"): ((2, 2, 3, 3, 3, 2, 2), 12, 201, 5047),
        ("dfs", "carry"): ((2, 2, 3, 3, 3, 2, 2), 15, 222, 5069),
        ("dfs", "comp"): ((2, 2, 3, 3, 3, 2, 2), 9, 137, 3389),
        ("bnb", "digits"): ((2, 2, 3, 3, 3, 2, 2), 12, 99, 4188),
        ("bnb", "carry"): ((2, 3, 6, 3, 2, 2), 15, 94, 3995),
        ("bnb", "comp"): ((2, 2, 3, 3, 3, 2, 2), 9, 50, 2747),
        ("hashbnb", "digits"): ((2, 2, 3, 3, 3, 2, 2), 12, 21, 2152),
        ("hashbnb", "carry"): ((2, 3, 6, 3, 2, 2), 15, 18, 2073),
        ("hashbnb", "comp"): ((2, 2, 3, 3, 3, 2, 2), 9, 16, 1799),
    }),
    ((5925, 7425, 9594), True, {
        ("dfs", "digits"): ((3, 3, 2, 41, 2, 2, 2), 11, 228, 7220),
        ("dfs", "carry"): ((3, 3, 2, 41, 2, 2, 2), 11, 203, 6313),
        ("dfs", "comp"): ((3, 3, 2, 41, 2, 2, 2), 6, 143, 3896),
        ("bnb", "digits"): ((3, 3, 2, 41, 2, 2, 2), 11, 53, 3824),
        ("bnb", "carry"): ((3, 3, 2, 41, 2, 2, 2), 11, 36, 2801),
        ("bnb", "comp"): ((3, 3, 2, 41, 2, 2, 2), 6, 40, 2664),
        ("hashbnb", "digits"): ((3, 3, 2, 41, 2, 2, 2), 11, 33, 2781),
        ("hashbnb", "carry"): ((3, 3, 2, 41, 2, 2, 2), 11, 25, 2139),
        ("hashbnb", "comp"): ((3, 3, 2, 41, 2, 2, 2), 6, 27, 2034),
    }),
    ((2946, 4000), False, {
        ("dfs", "digits"): ((2, 2, 2, 2, 2, 5, 2, 3, 2, 2), 7, 829, 36163),
        ("dfs", "carry"): ((2, 2, 2, 2, 2, 5, 2, 3, 2, 2), 7, 734, 33761),
        ("dfs", "comp"): ((2, 2, 5, 2, 2, 2, 2, 2, 3, 2), 0, 391, 12887),
        ("bnb", "digits"): ((2, 16, 5, 6, 3), 7, 295, 25743),
        ("bnb", "carry"): ((2, 16, 5, 6, 3), 7, 272, 24985),
        ("bnb", "comp"): ((5, 4, 2, 4, 6, 2, 2), 0, 158, 11459),
        ("hashbnb", "digits"): ((2, 16, 5, 6, 3), 7, 47, 9472),
        ("hashbnb", "carry"): ((2, 16, 5, 6, 3), 7, 44, 9091),
        ("hashbnb", "comp"): ((2, 2, 5, 2, 4, 2, 2, 3, 2), 0, 42, 7784),
    }),
    ((39, 44, 64, 68), True, {
        ("dfs", "digits"): ((2, 2, 2, 2, 2, 2), 10, 9, 49),
        ("dfs", "carry"): ((2, 2, 2, 2, 2, 2), 13, 11, 55),
        ("dfs", "comp"): ((2, 2, 2, 2, 2, 2), 8, 7, 38),
        ("bnb", "digits"): ((2, 2, 2, 2, 2, 2), 10, 5, 43),
        ("bnb", "carry"): ((2, 2, 2, 2, 2, 2), 13, 9, 50),
        ("bnb", "comp"): ((2, 2, 2, 2, 2, 2), 8, 7, 38),
        ("hashbnb", "digits"): ((2, 2, 2, 2, 2, 2), 10, 5, 43),
        ("hashbnb", "carry"): ((2, 2, 2, 2, 2, 2), 13, 9, 51),
        ("hashbnb", "comp"): ((2, 2, 2, 2, 2, 2), 8, 7, 38),
    }),
    ((9595, 15476, 79818), False, {
        ("dfs", "digits"): ((53, 2, 2, 2, 2, 3, 3, 2, 5), 13, 2339, 512341),
        ("dfs", "carry"): ((53, 2, 2, 3, 3, 4, 2, 5), 13, 1809, 432904),
        ("dfs", "comp"): ((53, 2, 2, 3, 3, 2, 2, 2, 5), 4, 791, 139851),
        ("bnb", "digits"): ((53, 2, 2, 3, 3, 4, 2, 5), 13, 263, 107194),
        ("bnb", "carry"): ((53, 2, 2, 3, 3, 4, 2, 5), 13, 151, 55185),
        ("bnb", "comp"): ((53, 2, 2, 3, 3, 4, 2, 5), 4, 60, 15190),
        ("hashbnb", "digits"): ((53, 2, 2, 3, 3, 4, 2, 5), 13, 70, 38444),
        ("hashbnb", "carry"): ((53, 2, 2, 3, 3, 4, 2, 5), 13, 49, 27616),
        ("hashbnb", "comp"): ((53, 2, 2, 3, 3, 4, 2, 5), 4, 25, 11597),
    }),
    ((44834, 99240), True, {
        ("dfs", "digits"): ((2, 2, 2, 2, 2, 2, 2, 5, 2, 7, 5, 2), 8, 581, 32903),
        ("dfs", "carry"): ((2, 2, 2, 2, 2, 5, 2, 2, 2, 7, 5, 2), 8, 472, 27062),
        ("dfs", "comp"): ((2, 2, 2, 2, 2, 7, 2, 2, 2, 5, 5, 2), 0, 183, 6451),
        ("bnb", "digits"): ((2, 29, 2, 5, 19, 3, 3), 8, 443, 31635),
        ("bnb", "carry"): ((2, 2, 2, 2, 2, 5, 2, 2, 2, 7, 5, 2), 8, 345, 25713),
        ("bnb", "comp"): ((2, 2, 2, 2, 2, 7, 2, 2, 2, 5, 5, 2), 0, 42, 4938),
        ("hashbnb", "digits"): ((2, 29, 2, 5, 19, 3, 3), 8, 107, 8950),
        ("hashbnb", "carry"): ((2, 2, 2, 2, 2, 5, 2, 2, 5, 2, 7, 2), 8, 87, 8004),
        ("hashbnb", "comp"): ((2, 2, 2, 2, 2, 7, 2, 2, 2, 5, 5, 2), 0, 24, 2682),
    }),
    ((41, 432, 986), False, {
        ("dfs", "digits"): ((2, 2, 3, 3, 3, 2, 2, 2), 8, 152, 4884),
        ("dfs", "carry"): ((2, 2, 3, 3, 3, 2, 2, 2), 8, 130, 4346),
        ("dfs", "comp"): ((2, 2, 3, 3, 3, 2, 2, 2), 0, 69, 2373),
        ("bnb", "digits"): ((2, 2, 3, 3, 3, 3, 3), 8, 46, 4568),
        ("bnb", "carry"): ((2, 2, 3, 3, 3, 3, 3), 8, 34, 3965),
        ("bnb", "comp"): ((2, 2, 3, 3, 3, 3, 3), 0, 11, 2076),
        ("hashbnb", "digits"): ((2, 2, 3, 3, 3, 3, 3), 8, 17, 2800),
        ("hashbnb", "carry"): ((2, 2, 3, 3, 3, 3, 3), 8, 15, 2757),
        ("hashbnb", "comp"): ((2, 2, 3, 3, 3, 3, 3), 0, 10, 1959),
    }),
    ((41, 44, 74, 89), True, {
        ("dfs", "digits"): ((2, 2, 3, 3, 2), 12, 14, 64),
        ("dfs", "carry"): ((2, 2, 3, 3, 2), 16, 17, 69),
        ("dfs", "comp"): ((2, 2, 3, 3, 2), 16, 15, 51),
        ("bnb", "digits"): ((2, 2, 3, 3, 2), 12, 9, 62),
        ("bnb", "carry"): ((2, 2, 3, 3, 2), 16, 8, 55),
        ("bnb", "comp"): ((2, 2, 3, 3, 2), 16, 10, 47),
        ("hashbnb", "digits"): ((2, 2, 3, 3, 2), 12, 9, 63),
        ("hashbnb", "carry"): ((2, 2, 3, 3, 2), 16, 8, 57),
        ("hashbnb", "comp"): ((2, 2, 3, 3, 2), 16, 10, 47),
    }),
    ((1127, 7475, 8138, 9502), False, {
        ("dfs", "digits"): ((5, 3, 3, 5, 2, 2, 2, 2, 2), 23, 912, 96851),
        ("dfs", "carry"): ((5, 5, 9, 3, 11), 25, 1337, 109281),
        ("dfs", "comp"): ((5, 3, 3, 5, 2, 2, 2, 2, 2), 36, 575, 47773),
        ("bnb", "digits"): ((5, 5, 9, 2, 2, 2, 4), 23, 249, 61238),
        ("bnb", "carry"): ((5, 5, 9, 3, 11), 25, 97, 38897),
        ("bnb", "comp"): ((5, 3, 3, 5, 2, 2, 2, 4), 36, 132, 24505),
        ("hashbnb", "digits"): ((5, 5, 9, 2, 2, 2, 4), 23, 65, 19402),
        ("hashbnb", "carry"): ((5, 5, 9, 3, 11), 25, 43, 16840),
        ("hashbnb", "comp"): ((5, 3, 3, 5, 2, 2, 2, 4), 36, 59, 15472),
    }),
    ((61, 86, 90), True, {
        ("dfs", "digits"): ((5, 2, 2, 2, 2), 8, 50, 99),
        ("dfs", "carry"): ((5, 2, 2, 2, 2), 8, 48, 91),
        ("dfs", "comp"): ((5, 2, 2, 2, 2), 2, 61, 80),
        ("bnb", "digits"): ((5, 2, 2, 2, 2), 8, 21, 73),
        ("bnb", "carry"): ((5, 2, 2, 2, 2), 8, 18, 66),
        ("bnb", "comp"): ((5, 2, 2, 2, 2), 2, 10, 45),
        ("hashbnb", "digits"): ((5, 2, 2, 2, 2), 8, 15, 66),
        ("hashbnb", "carry"): ((5, 2, 2, 2, 2), 8, 12, 55),
        ("hashbnb", "comp"): ((5, 2, 2, 2, 2), 2, 10, 46),
    }),
    ((90, 94), False, {
        ("dfs", "digits"): ((2, 3, 3, 5), 4, 57, 237),
        ("dfs", "carry"): ((2, 3, 3, 5), 4, 58, 236),
        ("dfs", "comp"): ((3, 2, 3, 5), 1, 99, 221),
        ("bnb", "digits"): ((2, 45), 4, 3, 139),
        ("bnb", "carry"): ((2, 45), 4, 3, 134),
        ("bnb", "comp"): ((3, 30), 1, 28, 156),
        ("hashbnb", "digits"): ((2, 45), 4, 3, 143),
        ("hashbnb", "carry"): ((2, 45), 4, 3, 138),
        ("hashbnb", "comp"): ((3, 30), 1, 10, 166),
    }),
    ((4663, 6321, 7302, 9470), True, {
        ("dfs", "digits"): ((2, 5, 5, 3, 3, 2, 2, 2, 2), 21, 682, 12094),
        ("dfs", "carry"): ((2, 5, 2, 2, 2, 13, 3, 2), 26, 677, 12086),
        ("dfs", "comp"): ((2, 5, 5, 3, 3, 2, 2, 2, 2), 27, 498, 7492),
        ("bnb", "digits"): ((2, 5, 5, 3, 3, 2, 2, 2, 2), 21, 433, 10520),
        ("bnb", "carry"): ((2, 5, 2, 2, 2, 13, 3, 2), 26, 270, 8854),
        ("bnb", "comp"): ((2, 5, 5, 3, 3, 2, 2, 2, 2), 27, 220, 6101),
        ("hashbnb", "digits"): ((2, 5, 5, 3, 3, 2, 2, 2, 2), 21, 107, 4123),
        ("hashbnb", "carry"): ((2, 5, 2, 2, 2, 13, 3, 2), 26, 83, 3877),
        ("hashbnb", "comp"): ((2, 5, 5, 3, 3, 2, 2, 2, 2), 27, 79, 3159),
    }),
    ((5824, 7565), False, {
        ("dfs", "digits"): ((2, 2, 2, 2, 2, 2, 13, 3, 2), 8, 1407, 76459),
        ("dfs", "carry"): ((2, 2, 2, 2, 2, 2, 13, 3, 2), 8, 1303, 68594),
        ("dfs", "comp"): ((2, 2, 2, 7, 2, 2, 2, 2, 2, 2, 2), 0, 308, 12959),
        ("bnb", "digits"): ((4, 2, 8, 13, 7), 8, 493, 52865),
        ("bnb", "carry"): ((4, 2, 8, 13, 7), 8, 471, 45594),
        ("bnb", "comp"): ((4, 14, 2, 2, 2, 4, 2, 2), 0, 117, 11314),
        ("hashbnb", "digits"): ((4, 2, 8, 13, 7), 8, 55, 15245),
        ("hashbnb", "carry"): ((4, 2, 8, 13, 7), 8, 53, 13764),
        ("hashbnb", "comp"): ((4, 14, 2, 2, 2, 4, 2, 2), 0, 27, 5431),
    }),
    ((61, 120, 224, 506), True, {
        ("dfs", "digits"): ((2, 2, 2, 7, 2, 2, 2), 9, 47, 366),
        ("dfs", "carry"): ((2, 2, 2, 7, 3, 3), 11, 52, 428),
        ("dfs", "comp"): ((2, 2, 2, 7, 2, 2, 2), 4, 49, 330),
        ("bnb", "digits"): ((2, 2, 2, 7, 2, 2, 2), 9, 18, 314),
        ("bnb", "carry"): ((2, 2, 2, 7, 3, 3), 11, 24, 384),
        ("bnb", "comp"): ((2, 2, 2, 7, 2, 2, 2), 4, 18, 269),
        ("hashbnb", "digits"): ((2, 2, 2, 7, 2, 2, 2), 9, 13, 273),
        ("hashbnb", "carry"): ((2, 2, 2, 7, 3, 3), 11, 16, 322),
        ("hashbnb", "comp"): ((2, 2, 2, 7, 2, 2, 2), 4, 14, 247),
    }),
    ((4057, 6520), False, {
        ("dfs", "digits"): ((5, 2, 3, 3, 3, 3, 2, 2, 2), 8, 1884, 69544),
        ("dfs", "carry"): ((5, 2, 3, 3, 3, 3, 2, 2, 2), 8, 1481, 59425),
        ("dfs", "comp"): ((5, 2, 3, 3, 2, 3, 2, 2, 3), 1, 1753, 38361),
        ("bnb", "digits"): ((5, 2, 3, 27, 4, 2), 8, 581, 49299),
        ("bnb", "carry"): ((5, 2, 3, 27, 4, 2), 8, 415, 44018),
        ("bnb", "comp"): ((5, 2, 3, 9, 2, 2, 2, 3), 1, 221, 24742),
        ("hashbnb", "digits"): ((5, 2, 3, 27, 4, 2), 8, 70, 13829),
        ("hashbnb", "carry"): ((5, 2, 3, 27, 4, 2), 8, 56, 12887),
        ("hashbnb", "comp"): ((5, 2, 3, 3, 2, 3, 2, 2, 3), 1, 36, 10301),
    }),
    ((10562, 21806, 58876), True, {
        ("dfs", "digits"): ((2, 2, 3, 11, 5, 2, 2, 2, 2, 2, 2), 13, 1065, 27846),
        ("dfs", "carry"): ((2, 2, 3, 11, 2, 2, 5, 2, 2, 5), 15, 759, 26997),
        ("dfs", "comp"): ((2, 2, 3, 11, 2, 2, 2, 5, 2, 2, 2), 7, 390, 8934),
        ("bnb", "digits"): ((2, 2, 3, 11, 5, 2, 2, 2, 2, 5), 13, 133, 12345),
        ("bnb", "carry"): ((2, 2, 3, 11, 2, 2, 5, 2, 2, 5), 15, 190, 14607),
        ("bnb", "comp"): ((2, 2, 3, 11, 2, 2, 2, 5, 2, 5), 7, 54, 3978),
        ("hashbnb", "digits"): ((2, 2, 3, 11, 5, 2, 2, 2, 2, 5), 13, 52, 5503),
        ("hashbnb", "carry"): ((2, 2, 3, 11, 2, 2, 5, 2, 2, 5), 15, 59, 6189),
        ("hashbnb", "comp"): ((2, 2, 3, 11, 2, 2, 2, 5, 2, 5), 7, 31, 2588),
    }),
    ((17948, 36417, 56430, 72119), False, {
        ("dfs", "digits"): ((2, 2, 2, 2, 2, 2, 2, 2, 2, 5, 7, 2, 2), 24, 1478, 519490),
        ("dfs", "carry"): ((2, 3, 7, 17, 25, 2), 30, 3564, 709507),
        ("dfs", "comp"): ((3, 3, 2, 3, 2, 2, 3, 3, 3, 3, 2, 2), 31, 863, 158306),
        ("bnb", "digits"): ((2, 7, 2, 5, 2, 2, 4, 8, 2, 2), 24, 1416, 516005),
        ("bnb", "carry"): ((3, 3, 2, 3, 11, 5, 6, 2), 30, 1328, 487331),
        ("bnb", "comp"): ((3, 3, 2, 3, 2, 2, 3, 3, 9, 2, 2), 31, 367, 110811),
        ("hashbnb", "digits"): ((2, 7, 2, 5, 2, 2, 4, 8, 2, 2), 24, 134, 61917),
        ("hashbnb", "carry"): ((3, 3, 2, 3, 11, 5, 6, 2), 30, 130, 65846),
        ("hashbnb", "comp"): ((3, 3, 2, 3, 2, 2, 3, 3, 9, 2, 2), 31, 53, 26881),
    }),
    ((3781, 5879, 6234, 6805), True, {
        ("dfs", "digits"): ((2, 3, 2, 3, 3, 3, 3, 3, 2), 20, 400, 7506),
        ("dfs", "carry"): ((2, 3, 2, 3, 3, 3, 3, 3, 2), 26, 467, 8791),
        ("dfs", "comp"): ((2, 3, 2, 3, 3, 3, 3, 3, 2), 24, 281, 4174),
        ("bnb", "digits"): ((2, 3, 2, 3, 3, 3, 3, 3, 2), 20, 246, 6114),
        ("bnb", "carry"): ((2, 3, 2, 3, 3, 3, 3, 3, 2), 26, 279, 6868),
        ("bnb", "comp"): ((2, 3, 2, 3, 3, 3, 3, 3, 2), 24, 133, 3178),
        ("hashbnb", "digits"): ((2, 3, 2, 3, 3, 3, 3, 3, 2), 20, 64, 3130),
        ("hashbnb", "carry"): ((2, 3, 2, 3, 3, 3, 3, 3, 2), 26, 75, 3247),
        ("hashbnb", "comp"): ((2, 3, 2, 3, 3, 3, 3, 3, 2), 24, 30, 1699),
    }),
    ((155, 181), False, {
        ("dfs", "digits"): ((5, 2, 3, 5), 5, 124, 828),
        ("dfs", "carry"): ((5, 2, 3, 5), 5, 111, 776),
        ("dfs", "comp"): ((5, 3, 3, 2, 2), 0, 154, 649),
        ("bnb", "digits"): ((5, 6, 5), 5, 8, 299),
        ("bnb", "carry"): ((5, 6, 5), 5, 7, 209),
        ("bnb", "comp"): ((5, 3, 3, 2, 2), 0, 14, 229),
        ("hashbnb", "digits"): ((5, 6, 5), 5, 6, 297),
        ("hashbnb", "carry"): ((5, 6, 5), 5, 5, 205),
        ("hashbnb", "comp"): ((5, 3, 3, 2, 2), 0, 9, 228),
    }),
]


@pytest.mark.parametrize("elements,primes_only,table", GOLDEN)
def test_search_telemetry_matches_golden_table(elements, primes_only, table):
    s = Multiset.of(elements)
    for (algorithm, kind), want in table.items():
        cfg = SearchConfig(kind=CostKind(kind), max_elem=MAX_ELEM,
                           primes_only=primes_only, algorithm=algorithm)
        r = find_base(s, cfg)
        got = (r.best_base, r.best_cost, r.nodes_expanded, r.nodes_pruned)
        assert got == want, (algorithm, kind)


@pytest.mark.parametrize("elements,primes_only", [g[:2] for g in GOLDEN])
def test_hashbnb_expands_each_product_once(monkeypatch, elements,
                                           primes_only):
    # _Run.children is called once per expansion, with the expanded state
    children = search._Run.children
    expanded = []

    def record(run, state):
        expanded.append(state.prod)
        return children(run, state)

    monkeypatch.setattr(search._Run, "children", record)
    for kind in CostKind:
        expanded.clear()
        r = find_base(Multiset.of(elements),
                      SearchConfig(kind=kind, max_elem=MAX_ELEM,
                                   primes_only=primes_only))
        assert len(expanded) == r.nodes_expanded
        assert len(set(expanded)) == len(expanded), kind
        assert r.optimal_guaranteed is not r.timed_out


@pytest.mark.parametrize("algorithm", ["dfs", "bnb"])
@pytest.mark.parametrize("elements,primes_only", [g[:2] for g in GOLDEN])
def test_children_called_once_per_expansion(monkeypatch, algorithm, elements,
                                            primes_only):
    # dfs and bnb, like hashbnb above, call _Run.children exactly once per
    # expansion: the loops that filter its children count no node twice
    children = search._Run.children
    calls = []

    def record(run, state):
        calls.append(state.prod)
        return children(run, state)

    monkeypatch.setattr(search._Run, "children", record)
    for kind in CostKind:
        calls.clear()
        r = find_base(Multiset.of(elements),
                      SearchConfig(kind=kind, max_elem=MAX_ELEM,
                                   primes_only=primes_only,
                                   algorithm=algorithm))
        assert len(calls) == r.nodes_expanded, kind


# The workload's scale: radices up to 10**4 under hashbnb, on twenty values
# from U[1, 10**5] (random.Random(22)) under carry and comp with every
# integer a radix, and on four values from U[1, 2**31 - 1]
# (random.Random(31)) under digits with prime radices.
WORKLOAD_TWENTY = (3096, 6510, 10441, 15807, 18399, 23480, 24151, 30375,
                   31801, 35294, 41872, 45305, 58607, 72352, 78793, 80359,
                   85384, 89819, 92007, 96940)
WORKLOAD_FOUR = (26367330, 241374707, 1008411488, 1640627848)
WORKLOAD_SCALE = [
    (WORKLOAD_TWENTY, "carry", False,
     ((3, 4, 2, 3, 3, 3, 3, 3, 3, 4), 264, 549, 338271)),
    (WORKLOAD_TWENTY, "comp", False,
     ((3, 3, 3, 3, 3, 3, 2, 2, 2, 3, 2, 2), 1469, 291, 273339)),
    (WORKLOAD_FOUR, "digits", True,
     ((2, 2, 2, 2, 2, 7, 3, 3, 11, 2, 2, 3, 3, 3, 5, 2, 2, 2, 2, 2, 2, 2), 44,
      2813, 2684684)),
]


@pytest.mark.parametrize("elements,kind,primes_only,want", WORKLOAD_SCALE)
def test_search_telemetry_at_the_workloads_scale(elements, kind, primes_only,
                                                 want):
    cfg = SearchConfig(kind=CostKind(kind), max_elem=10**4,
                       primes_only=primes_only)
    r = find_base(Multiset.of(elements), cfg)
    assert (r.best_base, r.best_cost, r.nodes_expanded, r.nodes_pruned) == want


# The paper's scale: six values from U[1, 2**31 - 1] (random.Random(5)) and
# radices up to 10**6, under hashbnb.  carry (5-9 s) stays out of tier-1.
PAPER_SET = (548563997, 769949151, 1337671203, 1482723312, 1592975437,
             1707665180)
PAPER_SCALE = {
    ("digits", True): ((2, 2, 3, 2, 2, 2, 2, 3, 2, 2, 3, 2, 2, 2, 2, 2, 2, 2,
                        5, 2, 2, 3, 2, 2, 2, 3), 70, 2041, 44987768),
    ("comp", False): ((3, 2, 2, 2, 2, 2, 2, 3, 2, 2, 3, 2, 2, 2, 2, 2, 2, 2,
                       5, 2, 2, 3, 2, 3, 2, 2), 163, 591, 213515507),
}


@pytest.mark.parametrize("kind,primes_only", PAPER_SCALE)
def test_search_telemetry_at_the_papers_scale(kind, primes_only):
    cfg = SearchConfig(kind=CostKind(kind), max_elem=10**6,
                       primes_only=primes_only)
    r = find_base(Multiset.of(PAPER_SET), cfg)
    got = (r.best_base, r.best_cost, r.nodes_expanded, r.nodes_pruned)
    assert got == PAPER_SCALE[kind, primes_only]
