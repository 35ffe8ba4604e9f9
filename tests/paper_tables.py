"""The paper's reference data, frozen once for every test that checks it.

It imports nothing from collatzkit, so it is an oracle rather than a second
copy of what the package computes.
"""

# Tables 1 and 2: rows of n1 values by ascending exponent, n2 = 6i + 1
# (even x) and n2 = 6i - 1 (odd x), and the grey cells, whose n1 is a
# multiple of 3 and so generates nothing further.
TABLE1 = {
    1: [1, 5, 21, 85, 341, 1365, 5461, 21845, 87381],
    7: [9, 37, 149, 597, 2389, 9557, 38229, 152917, 611669],
    13: [17, 69, 277, 1109, 4437, 17749, 70997, 283989, 1135957],
    19: [25, 101, 405, 1621, 6485, 25941, 103765, 415061, 1660245],
}
TABLE1_GREY = {
    21, 1365, 87381, 9, 597, 38229, 69, 4437, 283989, 405, 25941, 1660245,
}
TABLE2 = {
    5: [3, 13, 53, 213, 853, 3413, 13653, 54613, 218453],
    11: [7, 29, 117, 469, 1877, 7509, 30037, 120149, 480597],
    17: [11, 45, 181, 725, 2901, 11605, 46421, 185685, 742741],
}
TABLE2_GREY = {3, 213, 13653, 117, 7509, 480597, 45, 2901, 185685}

# Table 3: the six demonstration rows for the range [1, 19], as
# (start, values, new odds). Each row stops at the first value an earlier
# row already visited, inclusive; start 19 merges at 22, which row 7 showed.
TABLE3_ROWS = [
    (1, (4, 2, 1), (1,)),
    (3, (3, 10, 5, 16, 8, 4), (3, 5)),
    (7, (7, 22, 11, 34, 17, 52, 26, 13, 40, 20, 10), (7, 11, 13, 17)),
    (9, (9, 28, 14, 7), (9,)),
    (15, (15, 46, 23, 70, 35, 106, 53, 160, 80, 40), (15,)),
    (19, (19, 58, 29, 88, 44, 22), (19,)),
]

# Odd numbers <= 1e4 whose forward odd chain climbs above 1e6 on its way to
# 1: 4591, 6121, 6887, 8161 and 9183 need a value cap of 2,717,873, 9663
# needs 9,038,141, and the other eight need 2,270,045.
CAP_1E6_GAPS = frozenset(
    {4255, 4591, 5673, 6121, 6383, 6471, 6887, 8161, 8191, 8511, 9183, 9575, 9663, 9707}
)
