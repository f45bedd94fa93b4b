#!/usr/bin/env python3
"""Fail when ctest reported a skipped test that the allowlist does not name.

Usage: check_skips.py CTEST_LOG ALLOWLIST

CTEST_LOG is ctest's console output. ALLOWLIST holds one test name per
line; shell-style wildcards are allowed, and '#' starts a comment.
"""

import fnmatch
import re
import sys

SKIPPED = re.compile(r"Test\s+#\d+: (.+?) \.+\*+Skipped")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[2]) as f:
        allowed = [line.split("#", 1)[0].strip() for line in f]
    allowed = [p for p in allowed if p]
    with open(sys.argv[1]) as f:
        skipped = sorted(set(SKIPPED.findall(f.read())))
    unexpected = [t for t in skipped
                  if not any(fnmatch.fnmatchcase(t, p) for p in allowed)]
    print(f"{len(skipped)} skipped, {len(unexpected)} not allowlisted")
    for t in unexpected:
        print(f"unexpected skip: {t}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
