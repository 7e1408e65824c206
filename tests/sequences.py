"""The published sequences the tests pin, each pinned once here: the term
at index k is the count at size n = k + 1."""

SCHRODER = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098]  # A006318
BAXTER = [1, 2, 6, 22, 92, 422, 2074, 10754, 58202, 326240]  # A001181, weak classes
STRONG_RECT = [1, 2, 6, 24, 116, 642, 3938, 26194, 186042, 1395008]  # A342141
U_COUNTS = [1, 2, 6, 24, 112, 582, 3272, 19550, 122628, 800392]  # strong leftright
O_COUNTS = [1, 2, 6, 20, 72, 274, 1088, 4470, 18884, 81652]  # A348351, one-sided
STRONG_GUILLOTINE = [
    1, 2, 6, 24, 114, 606, 3494, 21434, 138100, 926008, 6418576, 45755516,
]
