#!/usr/bin/env python3
"""i2a lint — repo-specific rules the thread-safety annotations can't express.

Five rules, each guarding an invariant the serving core documents
(DESIGN.md §10–§11) but no compiler flag checks:

  commit-noexcept            commit-phase functions (`commit_*`) must be
                             declared `noexcept`: phase 2 of the two-phase
                             publish has, by contract, no fallible step.
  bare-mutex-member          no `std::mutex` (or timed/recursive/shared
                             variant) declared outside util/sync.hpp —
                             every mutex must be a `util::Mutex` so the
                             Clang Thread Safety Analysis sees it.
  kernel-entry-expects       kernel entry points (spgemm, spgemm_at_b,
                             transpose, merge_add_k) must validate their
                             inputs with `I2A_EXPECTS` at the top of the
                             body (the kernel-boundary contract).
  sharedptr-copy-in-hot-loop the row-fold inner loops (fold_row,
                             for_each_in_row, merge_row_k) must not
                             declare by-value `std::shared_ptr` locals:
                             a refcount bump per row is a shared cache
                             line bounce on the hottest read path.
  durable-write-checksummed  the durable path (util/io.hpp, stream/
                             wal.hpp, stream/checkpoint.hpp) may issue a
                             raw write(2)-family call ONLY inside
                             File::write_fully — every durable byte must
                             flow through the frame writer so each
                             record is length-prefixed and CRC32C-
                             checksummed, else a torn or corrupt tail is
                             undetectable at recovery (DESIGN.md §12).

Escapes: a comment `// i2a-lint: allow(<rule>): <reason>` on or above
the flagged line suppresses that rule there; the reason is mandatory by
convention and reviewed like a NOLINT.

The engine is lexical (comments and string literals are blanked before
matching), so it runs anywhere python3 does — no clang needed, nothing
to build.

Usage:
  i2a_lint.py --root <repo>     lint include/i2a under <repo> (exit 1 on
                                any violation)
  i2a_lint.py --self-test       run the rules against tools/lint/fixtures/
                                and require the reported set to equal the
                                `// lint-expect: <rule>` markers exactly
  i2a_lint.py file.hpp ...      lint specific files
"""

import argparse
import os
import re
import sys

RULES = (
    "commit-noexcept",
    "bare-mutex-member",
    "kernel-entry-expects",
    "sharedptr-copy-in-hot-loop",
    "durable-write-checksummed",
)

# Kernel entry points that must open with I2A_EXPECTS, and how deep into
# the body (in lines) the first check may sit — deep enough for a
# doc-commented validation loop, shallow enough that "validates at the
# boundary" stays true.
KERNEL_ENTRY_NAMES = ("spgemm_at_b", "spgemm", "transpose", "merge_add_k")
KERNEL_EXPECTS_WINDOW = 25

# Row-fold inner loops where a by-value shared_ptr is a per-row atomic.
HOT_LOOP_NAMES = ("fold_row", "for_each_in_row", "merge_row_k")

# The durable path: headers where every byte written must be framed and
# checksummed. Matched by path suffix so the rule stays silent on the
# rest of the tree (in-memory code writes nothing durable).
DURABLE_PATH_SUFFIXES = ("util/io.hpp", "stream/wal.hpp",
                         "stream/checkpoint.hpp")
DURABLE_FIXTURE_PREFIX = "durable_write_checksummed_"

ALLOW_RE = re.compile(r"i2a-lint:\s*allow\(([a-z0-9-]+)\)")
EXPECT_RE = re.compile(r"lint-expect:\s*([a-z0-9-]+)")

# Tokens that, when immediately preceding `name(`, mean `name` is being
# *called* (or otherwise used in an expression), not declared.
CALL_PREFIX_KEYWORDS = {
    "return", "throw", "co_return", "case", "else", "do", "goto",
    "new", "delete", "sizeof", "not", "and", "or",
}


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def blank_comments_and_strings(text):
    """Return text of identical length/line structure with comment and
    string-literal *contents* replaced by spaces, so the rule regexes
    never match prose or literals."""
    out = list(text)
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = "str"
                i += 1
                continue
            if c == "'":
                state = "chr"
                i += 1
                continue
            i += 1
        elif state == "line":
            if c == "\n":
                state = "code"
            elif c != "\n":
                out[i] = " "
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out[i] = " "
                if nxt and nxt != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == quote:
                state = "code"
            elif c != "\n":
                out[i] = " "
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def match_forward(text, pos, open_ch, close_ch):
    """pos points at open_ch; return index just past its match, or -1."""
    depth = 0
    i = pos
    n = len(text)
    while i < n:
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return -1


def classify_name_use(code, name_start):
    """'decl' if name at name_start begins a function declaration /
    definition, 'call' if it is a call or other expression use."""
    before = code[:name_start].rstrip()
    if not before:
        return "decl"
    if before.endswith("->"):
        return "call"
    if before.endswith("::"):
        return "call"  # definitions in this tree are written unqualified
    if before[-1] in ".(,=!+-<|&?:;{}":
        # Operators mean expression context. `;` `{` `}` `:` directly
        # before the name mean a *statement* starting with the name — a
        # call — since a declaration would need a return type token in
        # between (C++ has no implicit int).
        return "call"
    m = re.search(r"([A-Za-z_]\w*)\s*$", before)
    if m and m.group(1) in CALL_PREFIX_KEYWORDS:
        return "call"
    # A word (return type), `>` (template return type), `&`/`*`
    # (reference/pointer return) all read as a declaration.
    return "decl"


def find_function_sites(code, names):
    """Yield (name, name_pos, body_start, body_end) for every
    declaration/definition of `names` in blanked text `code`.
    body_start/body_end are None for bodiless declarations."""
    pattern = re.compile(r"\b(" + "|".join(names) + r")\s*\(")
    for m in pattern.finditer(code):
        if classify_name_use(code, m.start()) != "decl":
            continue
        paren_open = code.index("(", m.end(1))
        after_params = match_forward(code, paren_open, "(", ")")
        if after_params < 0:
            continue
        # Specifier region: everything up to the body/semicolon —
        # noexcept, attributes, trailing return types.
        i = after_params
        body_start = body_end = None
        while i < len(code):
            c = code[i]
            if c == "{":
                body_start = i
                body_end = match_forward(code, i, "{", "}")
                break
            if c == ";":
                break
            if c == "(":  # attribute/specifier arguments, e.g. I2A_EXCLUDES(...)
                i = match_forward(code, i, "(", ")")
                if i < 0:
                    break
                continue
            i += 1
        if i < 0:
            continue
        yield m.group(1), m.start(), body_start, body_end


def specifier_region(code, name_pos):
    """The text between the parameter list and the body/semicolon."""
    paren_open = code.index("(", name_pos)
    after_params = match_forward(code, paren_open, "(", ")")
    if after_params < 0:
        return ""
    i = after_params
    while i < len(code):
        c = code[i]
        if c in "{;":
            return code[after_params:i]
        if c == "(":
            i = match_forward(code, i, "(", ")")
            if i < 0:
                return code[after_params:]
            continue
        i += 1
    return code[after_params:]


def rule_commit_noexcept(path, code, out):
    for name, pos, _body_start, _body_end in find_function_sites(
            code, [r"commit_\w+"]):
        if not re.search(r"\bnoexcept\b", specifier_region(code, pos)):
            out.append(Violation(
                path, line_of(code, pos), "commit-noexcept",
                f"commit-phase function '{name}' must be declared noexcept "
                "(phase 2 of a publish has no fallible step by contract)"))


MUTEX_MEMBER_RE = re.compile(
    r"^[ \t]*(?:mutable\s+)?std::(?:recursive_|timed_|shared_)?mutex\s+"
    r"\w+\s*(?:\{\s*\})?\s*;", re.MULTILINE)


def rule_bare_mutex_member(path, code, out):
    for m in MUTEX_MEMBER_RE.finditer(code):
        out.append(Violation(
            path, line_of(code, m.start()), "bare-mutex-member",
            "bare std::mutex declaration — use util::Mutex so the thread "
            "safety analysis can see the capability"))


def rule_kernel_entry_expects(path, code, out):
    for name, pos, body_start, body_end in find_function_sites(
            code, KERNEL_ENTRY_NAMES):
        if body_start is None:
            continue  # bodiless declaration: the definition is checked
        body_head_end = body_start
        for _ in range(KERNEL_EXPECTS_WINDOW):
            nl = code.find("\n", body_head_end + 1)
            if nl < 0 or nl >= body_end:
                body_head_end = body_end
                break
            body_head_end = nl
        if "I2A_EXPECTS" not in code[body_start:body_head_end]:
            out.append(Violation(
                path, line_of(code, pos), "kernel-entry-expects",
                f"kernel entry point '{name}' must validate its inputs "
                f"with I2A_EXPECTS within the first {KERNEL_EXPECTS_WINDOW} "
                "lines of the body (kernel-boundary contract)"))


SHARED_PTR_RE = re.compile(r"\bstd::shared_ptr\s*<")


def rule_sharedptr_copy_in_hot_loop(path, code, out):
    for name, _pos, body_start, body_end in find_function_sites(
            code, HOT_LOOP_NAMES):
        if body_start is None:
            continue
        body = code[body_start:body_end]
        for m in SHARED_PTR_RE.finditer(body):
            angle_open = body.index("<", m.start())
            depth = 0
            i = angle_open
            close = -1
            while i < len(body):
                if body[i] == "<":
                    depth += 1
                elif body[i] == ">":
                    depth -= 1
                    if depth == 0:
                        close = i
                        break
                i += 1
            if close < 0:
                continue
            rest = body[close + 1:].lstrip()
            # `&`/`*` is a reference or pointer; `>`/`,`/`)` means the
            # shared_ptr is nested inside another type (the container of
            # handles, itself usually taken by reference); `::` is a
            # nested-name use (shared_ptr<T>::element_type). Only an
            # identifier right after the template close declares a
            # by-value object.
            if rest and (rest[0].isalpha() or rest[0] == "_"):
                out.append(Violation(
                    path, line_of(code, body_start + m.start()),
                    "sharedptr-copy-in-hot-loop",
                    f"by-value std::shared_ptr in '{name}' — a refcount "
                    "bump per row on the hot read path; hold a raw "
                    "pointer/reference (the caller's handles pin the runs)"))


RAW_WRITE_RE = re.compile(r"\b(write|pwrite|fwrite|writev|pwritev)\s*\(")


def rule_durable_write_checksummed(path, code, out):
    norm = path.replace(os.sep, "/")
    if not (norm.endswith(DURABLE_PATH_SUFFIXES)
            or os.path.basename(norm).startswith(DURABLE_FIXTURE_PREFIX)):
        return
    # The single sanctioned raw-write site: the body of File::write_fully
    # (the frame writer's backend). Everything else in these files must
    # go through write_frame.
    exempt = [(body_start, body_end)
              for _name, _pos, body_start, body_end in find_function_sites(
                  code, ["write_fully"])
              if body_start is not None]
    for m in RAW_WRITE_RE.finditer(code):
        if any(s <= m.start() < e for s, e in exempt):
            continue
        if classify_name_use(code, m.start()) != "call":
            continue  # a declaration of a method named `write` is not a call
        out.append(Violation(
            path, line_of(code, m.start()), "durable-write-checksummed",
            f"raw {m.group(1)}() call on the durable path outside "
            "File::write_fully — durable bytes must flow through "
            "write_frame so every record is length-prefixed and "
            "CRC32C-checksummed (else a torn/corrupt tail is "
            "undetectable at recovery)"))


RULE_FUNCS = {
    "commit-noexcept": rule_commit_noexcept,
    "bare-mutex-member": rule_bare_mutex_member,
    "kernel-entry-expects": rule_kernel_entry_expects,
    "sharedptr-copy-in-hot-loop": rule_sharedptr_copy_in_hot_loop,
    "durable-write-checksummed": rule_durable_write_checksummed,
}


def is_suppressed(raw_lines, violation):
    """An `i2a-lint: allow(<rule>)` comment on the flagged line, or in
    the comment block directly above it (template/requires/preprocessor
    lines in between are skipped — the marker documents the entity, and
    the flagged line of a template function is below its template
    clause)."""
    idx = violation.line - 1
    if idx < len(raw_lines):
        m = ALLOW_RE.search(raw_lines[idx])
        if m and m.group(1) == violation.rule:
            return True
    i = idx - 1
    while i >= 0:
        stripped = raw_lines[i].strip()
        if (stripped.startswith("//") or stripped.startswith("*")
                or stripped.startswith("/*") or stripped.endswith("*/")):
            m = ALLOW_RE.search(stripped)
            if m and m.group(1) == violation.rule:
                return True
            i -= 1
            continue
        if (not stripped or stripped.startswith("template")
                or stripped.startswith("requires")
                or stripped.startswith("#")):
            i -= 1
            continue
        return False
    return False


def lint_file(path, report_path=None):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    code = blank_comments_and_strings(text)
    raw_lines = text.splitlines()
    shown = report_path if report_path is not None else path
    found = []
    for func in RULE_FUNCS.values():
        func(shown, code, found)
    return [v for v in found if not is_suppressed(raw_lines, v)]


def collect_tree_files(root):
    include_root = os.path.join(root, "include", "i2a")
    files = []
    for dirpath, _dirnames, filenames in os.walk(include_root):
        for fn in sorted(filenames):
            if fn.endswith(".hpp"):
                files.append(os.path.join(dirpath, fn))
    return sorted(files)


def self_test():
    """Fixtures ship a known violation set; the engine must report
    exactly that set — a missed seeded violation means a rule stopped
    firing, an extra one means a rule started misfiring."""
    here = os.path.dirname(os.path.abspath(__file__))
    fixture_dir = os.path.join(here, "fixtures")
    fixture_files = sorted(
        os.path.join(fixture_dir, f) for f in os.listdir(fixture_dir)
        if f.endswith((".hpp", ".cpp")))
    if not fixture_files:
        print("i2a-lint self-test: no fixtures found", file=sys.stderr)
        return 1

    expected = set()  # (relpath, line, rule)
    for path in fixture_files:
        rel = os.path.basename(path)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            m = EXPECT_RE.search(line)
            if not m:
                continue
            rule = m.group(1)
            if rule not in RULES:
                print(f"i2a-lint self-test: {rel}:{i + 1}: unknown rule "
                      f"'{rule}' in lint-expect marker", file=sys.stderr)
                return 1
            # The marker documents the *next* non-blank line.
            j = i + 1
            while j < len(lines) and not lines[j].strip():
                j += 1
            expected.add((rel, j + 1, rule))

    reported = set()
    diagnostics = []
    for path in fixture_files:
        for v in lint_file(path, report_path=os.path.basename(path)):
            reported.add((v.path, v.line, v.rule))
            diagnostics.append(v)

    rules_seeded = {rule for _, _, rule in expected}
    missing_rules = set(RULES) - rules_seeded
    ok = True
    if missing_rules:
        print("i2a-lint self-test: no seeded fixture for rule(s): "
              + ", ".join(sorted(missing_rules)), file=sys.stderr)
        ok = False
    for rule in RULES:
        good = [f for f in fixture_files
                if os.path.basename(f).startswith(
                    rule.replace("-", "_") + "_good")]
        if not good:
            print(f"i2a-lint self-test: missing clean fixture for '{rule}' "
                  "(expected fixtures/<rule>_good.*)", file=sys.stderr)
            ok = False

    for item in sorted(expected - reported):
        print(f"i2a-lint self-test: MISSED seeded violation {item[0]}:"
              f"{item[1]} [{item[2]}]", file=sys.stderr)
        ok = False
    for item in sorted(reported - expected):
        print(f"i2a-lint self-test: UNEXPECTED finding {item[0]}:"
              f"{item[1]} [{item[2]}]", file=sys.stderr)
        ok = False

    if ok:
        print(f"i2a-lint self-test: OK — {len(expected)} seeded violations "
              f"across {len(rules_seeded)} rules all detected, clean "
              "fixtures clean")
        return 0
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", help="repository root (lints include/i2a)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the rules against tools/lint/fixtures/")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("files", nargs="*", help="specific files to lint")
    args = ap.parse_args()

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0
    if args.self_test:
        return self_test()

    if args.files:
        files = args.files
        root = args.root or os.getcwd()
    else:
        root = args.root
        if root is None:
            # tools/lint/i2a_lint.py → repo root is two levels up.
            root = os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))))
        files = collect_tree_files(root)
        if not files:
            print(f"i2a-lint: no headers found under {root}/include/i2a",
                  file=sys.stderr)
            return 2

    violations = []
    for path in files:
        rel = os.path.relpath(path, root) if args.root or not args.files \
            else path
        violations.extend(lint_file(path, report_path=rel))

    for v in violations:
        print(v)
    if not violations:
        print(f"i2a-lint: {len(files)} files, 0 violations")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
