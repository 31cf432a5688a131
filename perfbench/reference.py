"""Reference evaluator for the benchmark's queries.

Written from the paper's definitions, apart from the program: the XML
is parsed with the standard library, text is matched by plain
substring scans, and meets are found with the Figure 5 consumption rule
over parent pointers -- no path summary, arena or heap.

Data model (paper Definition 1 and 4): every element and every
non-whitespace text run is a node; nodes are numbered in document
order from 0 (the root); the depth of the root is 1.  Attributes are
not nodes.

Meet (paper section 3.2, Figure 5): every input association is an item
that climbs one edge at a time toward the root.  Deepest nodes first,
a node where items carrying at least two witnesses converge is a meet;
its items are consumed and never climb further.  A lone item keeps
climbing and is dropped at the root.  The witness distance of a meet is
the sum of the two largest distances from a witness to the meet node.
EXCLUDE and WITHIN (paper section 4) suppress a meet from the answer
but still consume its items.  Rows are ordered by (witness distance,
document, document order) and cut at LIMIT.
"""

import fnmatch
import xml.etree.ElementTree as ElementTree


class Doc:
    """A parsed document: parallel arrays indexed by node number."""

    def __init__(self, name, root):
        self.name = name
        self.parent = []
        self.label = []   # element tag, or None for a text node
        self.text = []    # text of a text node, None for an element
        self.depth = []
        self.path = []    # tuple of steps from the root, ('cdata',) last for text
        self.bindings = {}
        self._by_path = None
        self._add(root, -1, ())

    def _add(self, root, parent, parent_path):
        # Iterative pre-order walk; text and tails become text nodes.
        stack = [("element", root, parent, parent_path)]
        while stack:
            kind, item, parent, parent_path = stack.pop()
            if kind == "text":
                if item.strip():
                    self._append(parent, None, item, parent_path + ("cdata",))
                continue
            path = parent_path + (item.tag,)
            oid = self._append(parent, item.tag, None, path)
            todo = []
            if item.text is not None:
                todo.append(("text", item.text, oid, path))
            for child in item:
                todo.append(("element", child, oid, path))
                if child.tail is not None:
                    todo.append(("text", child.tail, oid, path))
            stack.extend(reversed(todo))

    def _append(self, parent, label, text, path):
        self.parent.append(parent)
        self.label.append(label)
        self.text.append(text)
        self.depth.append(len(path))
        self.path.append(path)
        return len(self.parent) - 1

    def nodes_by_path(self):
        """Nodes grouped by their root path, each group in document order."""
        if self._by_path is None:
            self._by_path = {}
            for node, path in enumerate(self.path):
                self._by_path.setdefault(path, []).append(node)
        return self._by_path

    def node_count(self):
        return len(self.parent)

    def tag(self, node):
        return self.label[node] if self.label[node] is not None else "cdata"

    def path_string(self, node):
        return "/".join(self.path[node])


def load_xml_text(name, xml_text):
    return Doc(name, ElementTree.fromstring(xml_text))


def load_xml_file(name, file_name):
    return Doc(name, ElementTree.parse(file_name).getroot())


# --- Path patterns ------------------------------------------------------

def parse_pattern(text):
    """`a//b/cdata` -> ['a', '//', 'b', 'cdata'] (root-anchored steps)."""
    steps = []
    for i, part in enumerate(text.split("/")):
        if part == "":
            if i == 0:
                raise ValueError("pattern must not start with /: " + text)
            steps.append("//")
        else:
            if part.startswith("@"):
                raise ValueError("attribute steps are not supported: " + text)
            steps.append(part)
    return steps


def pattern_matches(steps, path):
    """True when the node path (tuple of labels) matches the pattern.

    `*` is any one element step, `//` any run of element steps (also
    empty), `cdata` the text step, anything else an element tag.
    """
    def is_element(step):
        return step != "cdata"

    states = {0}
    for step in path:
        # Epsilon moves over `//` before consuming the step.
        states = _skip_descendants(steps, states)
        nxt = set()
        for i in states:
            if i == len(steps):
                continue
            want = steps[i]
            if want == "//":
                if is_element(step):
                    nxt.add(i)
            elif want == "*":
                if is_element(step):
                    nxt.add(i + 1)
            elif want == "cdata":
                if step == "cdata":
                    nxt.add(i + 1)
            elif is_element(step) and step == want:
                nxt.add(i + 1)
        states = nxt
        if not states:
            return False
    return len(steps) in _skip_descendants(steps, states)


def _skip_descendants(steps, states):
    out = set(states)
    for i in sorted(states):
        j = i
        while j < len(steps) and steps[j] == "//":
            j += 1
            out.add(j)
    return out


class _PathMatcher:
    def __init__(self, pattern):
        self.steps = parse_pattern(pattern)
        self.cache = {}

    def __call__(self, path):
        hit = self.cache.get(path)
        if hit is None:
            hit = self.cache[path] = pattern_matches(self.steps, path)
        return hit


# --- Predicates ---------------------------------------------------------
#
# A predicate tree over one variable's string value:
#   ('contains', s) | ('eq', s) | ('not', t) | ('and', t1, t2) | ('or', t1, t2)

def satisfies(tree, value):
    op = tree[0]
    if op == "contains":
        return tree[1] in value
    if op == "eq":
        return value == tree[1]
    if op == "not":
        return not satisfies(tree[1], value)
    if op == "and":
        return satisfies(tree[1], value) and satisfies(tree[2], value)
    if op == "or":
        return satisfies(tree[1], value) or satisfies(tree[2], value)
    raise ValueError("unknown predicate " + repr(op))


def bind(doc, pattern, conjuncts):
    """Nodes a FROM binding selects, in document order.

    With predicates only text nodes qualify (their value is the text);
    without, every node whose path matches.
    """
    key = (pattern, repr(conjuncts))
    hit = doc.bindings.get(key)
    if hit is not None:
        return hit
    match = _PathMatcher(pattern)
    out = []
    for path, nodes in doc.nodes_by_path().items():
        if not match(path):
            continue
        if not conjuncts:
            out.extend(nodes)
        elif path[-1] == "cdata":
            text = doc.text
            out.extend(n for n in nodes
                       if all(satisfies(c, text[n]) for c in conjuncts))
    out.sort()
    doc.bindings[key] = out
    return out


# --- Meet ---------------------------------------------------------------

def meets(doc, inputs, exclude=(), within=None):
    """All meets of the input node lists, as (distance, node, witnesses).

    `inputs` is one list of nodes per projected variable; a node bound
    by several variables is one item carrying several witnesses.
    """
    witnesses = {}
    for nodes in inputs:
        for node in nodes:
            witnesses.setdefault(node, []).append(doc.depth[node])
    excluded = [_PathMatcher(p) for p in exclude]

    # level[d] maps a node at depth d to the witness depths of the items
    # standing on it.
    level = {}
    for node, depths in witnesses.items():
        level.setdefault(doc.depth[node], {}).setdefault(node, []).append(depths)
    found = []
    for d in range(max(level, default=0), 0, -1):
        for node, items in level.get(d, {}).items():
            carried = [w for item in items for w in item]
            if len(carried) >= 2:
                spans = sorted((w - d for w in carried), reverse=True)
                distance = spans[0] + spans[1]
                if any(m(doc.path[node]) for m in excluded):
                    continue
                if within is not None and distance > within:
                    continue
                found.append((distance, node, len(carried)))
            elif doc.parent[node] >= 0:
                up = doc.parent[node]
                level.setdefault(d - 1, {}).setdefault(up, []).extend(items)
    return found


# --- Queries ------------------------------------------------------------
#
# A query is a dict:
#   proj:    'meet' (SELECT MEET(v1, v2, ..)) or 'var' (SELECT v)
#   vars:    [(name, pattern, [conjunct trees])] in FROM order
#   exclude: [pattern]   (meet only)
#   within:  int or None (meet only)
#   limit:   int or None

def evaluate(docs, query):
    """Expected answer rows over `docs` (the scoped documents, in
    catalog order): lists of cells, first cell the document name."""
    keyed = []
    for doc_index, doc in enumerate(docs):
        bound = [bind(doc, pattern, conj) for _, pattern, conj in query["vars"]]
        if query["proj"] == "meet":
            for distance, node, count in meets(
                    doc, bound, query.get("exclude", ()), query.get("within")):
                row = [doc.name, doc.tag(node), doc.path_string(node),
                       "o%d" % node, str(distance), str(count)]
                keyed.append(((distance, doc_index, node), row))
        elif query["proj"] == "var":
            paths = {doc.path[n] for n in bound[0]}
            if len(paths) > 1:
                raise ValueError("var projections must bind one path per "
                                 "document, so that document order is the "
                                 "row order")
            for node in bound[0]:
                row = [doc.name, doc.tag(node), doc.path_string(node),
                       "o%d" % node]
                keyed.append(((doc_index, node), row))
        else:
            raise ValueError("unknown projection " + repr(query["proj"]))
    keyed.sort(key=lambda kr: kr[0])
    rows = [row for _, row in keyed]
    if query.get("limit") is not None:
        rows = rows[:query["limit"]]
    return rows


def render_predicate(var, tree):
    op = tree[0]
    if op == "contains":
        return "%s CONTAINS '%s'" % (var, tree[1])
    if op == "eq":
        return "%s = '%s'" % (var, tree[1])
    if op == "not":
        return "NOT %s" % render_predicate(var, tree[1])
    if op in ("and", "or"):
        return "(%s %s %s)" % (render_predicate(var, tree[1]), op.upper(),
                               render_predicate(var, tree[2]))
    raise ValueError("unknown predicate " + repr(op))


def render(query):
    """The query language text of a query dict."""
    names = [name for name, _, _ in query["vars"]]
    if query["proj"] == "meet":
        text = "SELECT MEET(%s)" % ", ".join(names)
    else:
        text = "SELECT %s" % names[0]
    text += " FROM " + ", ".join(
        "%s %s" % (pattern, name) for name, pattern, _ in query["vars"])
    conjuncts = [render_predicate(name, tree)
                 for name, _, trees in query["vars"] for tree in trees]
    if conjuncts:
        text += " WHERE " + " AND ".join(conjuncts)
    for pattern in query.get("exclude", ()):
        text += " EXCLUDE " + pattern
    if query.get("within") is not None:
        text += " WITHIN %d" % query["within"]
    if query.get("limit") is not None:
        text += " LIMIT %d" % query["limit"]
    return text


def glob_match(pattern, name):
    """Scope globs: `*` any run, `?` any one character."""
    return fnmatch.fnmatchcase(name, pattern.replace("[", "[[]"))


def scoped(docs, scope):
    return [doc for doc in docs if glob_match(scope, doc.name)]


def rows_equal(expected, got):
    """The answer check: same rows, same order, same cells."""
    return [list(r) for r in expected] == [list(r) for r in got]
