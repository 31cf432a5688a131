"""Seeded inputs of the benchmark: XML corpora and query mixes.

Everything here is a pure function of the `random.Random` passed in.
The program under test sees only the XML files and the query texts
written from these values.
"""

# DBLP-shaped vocabulary.  Surnames and title words are built from
# letters that never form one another as substrings, so a CONTAINS on a
# surname finds authors and a CONTAINS on a title word finds titles.
_SURNAME_HEADS = ["Kar", "Tes", "Mol", "Bran", "Qui", "Vel", "Hoz", "Dru",
                  "Fen", "Gal", "Jor", "Lum", "Nev", "Pax", "Rud", "Syl"]
_SURNAME_TAILS = ["vonen", "linski", "dabury", "etzky", "omaro", "ughart"]
FIRST_NAMES = ["Ada", "Ben", "Cleo", "Dara", "Eli", "Fay", "Gus", "Hana",
               "Ivo", "Jun", "Kai", "Lea", "Max", "Noa", "Oli", "Pia"]
SURNAMES = [h + t for h in _SURNAME_HEADS for t in _SURNAME_TAILS]
TITLE_WORDS = ["Query", "Index", "Storage", "Join", "Transaction", "Schema",
               "Stream", "Cache", "Optimizer", "Graph", "Cluster", "Ranking",
               "Semistructured", "Tree", "Bitmap", "Recovery", "Replica",
               "Warehouse", "Mining", "Spatial", "Temporal", "Object",
               "Parallel", "Declarative", "Adaptive", "Compression"]
CONFERENCES = ["ICDE", "VLDB", "SIGMOD", "EDBT", "PODS", "ICDT", "CIKM", "SSDBM"]
JOURNALS = ["TODS", "VLDBJ", "TKDE", "DKE", "InfSys", "SIGREC"]
YEARS = list(range(1984, 2000))


def _author(rng):
    return "%s %s" % (rng.choice(FIRST_NAMES), rng.choice(SURNAMES))


def _title(rng):
    words = rng.sample(TITLE_WORDS, rng.randint(3, 6))
    return " ".join(words) + rng.choice(["", " Revisited", " for XML",
                                         " at Scale", " in Practice"])


def _entry(rng, kind, venue, year, serial):
    authors = [_author(rng) for _ in range(rng.randint(1, 3))]
    first = 100 + rng.randint(0, 800)
    parts = ["<author>%s</author>" % a for a in authors]
    parts.append("<title>%s</title>" % _title(rng))
    if kind == "inproceedings":
        parts.append("<pages>%d-%d</pages>" % (first, first + rng.randint(5, 20)))
        parts.append("<year>%d</year>" % year)
        parts.append("<booktitle>%s</booktitle>" % venue)
        key = "conf/%s/%d-%d" % (venue.lower(), year, serial)
    else:
        parts.append("<journal>%s</journal>" % venue)
        parts.append("<volume>%d</volume>" % (year - 1970))
        parts.append("<year>%d</year>" % year)
        parts.append("<pages>%d-%d</pages>" % (first, first + rng.randint(5, 30)))
        key = "journals/%s/%d-%d" % (venue.lower(), year, serial)
    if rng.random() < 0.25:
        parts.append("<ee>db/%s.html</ee>" % key)
    return '<%s key="%s">%s</%s>' % (kind, key, "".join(parts), kind)


def dblp_xml(rng, icde_per_year, other_per_year, journal_per_year, years=YEARS):
    """A DBLP-shaped bibliography: flat entries under <dblp>, per-year
    ICDE papers (none in 1985, as in real DBLP), other conference papers
    and journal articles."""
    entries = []
    serial = 0
    for year in years:
        batch = []
        if year != 1985:
            batch += [("inproceedings", "ICDE")] * icde_per_year
        batch += [("inproceedings", rng.choice(CONFERENCES[1:]))
                  for _ in range(other_per_year)]
        batch += [("article", rng.choice(JOURNALS))
                  for _ in range(journal_per_year)]
        rng.shuffle(batch)
        for kind, venue in batch:
            serial += 1
            entries.append(_entry(rng, kind, venue, year, serial))
    return "<dblp>%s</dblp>" % "".join(entries)


# --- Multimedia corpus (the paper's Fig. 6) ------------------------------

_FILLER = ["red", "green", "blue", "coarse", "fine", "smooth", "grainy",
           "edge", "blob", "face", "sky", "water", "motion", "still",
           "bright", "dark", "wide", "close", "indoor", "outdoor"]


def _region(rng, depth, max_depth):
    parts = ["<color>%s %.2f</color>" % (rng.choice(_FILLER[:3]), rng.random()),
             "<texture>%s</texture>" % rng.choice(_FILLER[3:7])]
    if depth < max_depth:
        for _ in range(rng.randint(0, 2)):
            parts.append(_region(rng, depth + 1, max_depth))
    parts.append("<shape>%s %s</shape>" % (rng.choice(_FILLER[7:11]),
                                          rng.choice(_FILLER[11:])))
    return "<region>%s</region>" % "".join(parts)


def planted_terms(distance):
    """The two marker strings planted at `distance` edges.  Uppercase
    markers never occur in the lowercase filler text."""
    return "ZQA%02dX" % distance, "ZQB%02dX" % distance


PLANTED_DISTANCES = [0] + list(range(2, 21))


def _probe(distance):
    """A subtree whose two text nodes are `distance` edges apart."""
    a, b = planted_terms(distance)
    if distance == 0:
        return "<probe><note>%s %s</note></probe>" % (a, b)

    def branch(edges, term):
        # `edges` edges from <probe> down to the text node.
        return "<hop>" * (edges - 1) + term + "</hop>" * (edges - 1)

    down_a = distance // 2
    return "<probe>%s<sep/>%s</probe>" % (branch(down_a, a),
                                         branch(distance - down_a, b))


def multimedia_xml(rng, items, max_region_depth=3):
    """Feature descriptions of media items, with one marker pair planted
    at each distance of PLANTED_DISTANCES in a random item."""
    hosts = {}
    for distance in PLANTED_DISTANCES:
        hosts.setdefault(rng.randrange(items), []).append(distance)
    out = []
    for i in range(items):
        parts = ['<item id="m%d">' % i,
                 "<meta><title>%s %s clip</title><source>camera%d</source>"
                 "<date>199%d-%02d-%02d</date></meta>" % (
                     rng.choice(_FILLER), rng.choice(_FILLER),
                     rng.randint(1, 9), rng.randint(0, 9),
                     rng.randint(1, 12), rng.randint(1, 28)),
                 "<features>"]
        for _ in range(rng.randint(1, 3)):
            parts.append(_region(rng, 1, max_region_depth))
        parts.append("</features><annotation><note>%s %s</note>" % (
            rng.choice(_FILLER), rng.choice(_FILLER)))
        for distance in hosts.get(i, []):
            parts.append(_probe(distance))
        parts.append("</annotation></item>")
        out.append("".join(parts))
    return "<media>%s</media>" % "".join(out)


# --- Query templates -----------------------------------------------------
#
# Queries are reference.py dicts; the text sent to the program is
# reference.render(query).

def _contains(term):
    return ("contains", term)


def meet_query(pattern_a, preds_a, pattern_b, preds_b, exclude=(),
               within=None, limit=None):
    return {"proj": "meet",
            "vars": [("a", pattern_a, preds_a), ("b", pattern_b, preds_b)],
            "exclude": list(exclude), "within": within, "limit": limit}


def serve_mix(rng, all_names):
    """The serve workload's query mix: twenty of each template."""
    queries = []
    for _ in range(20):
        # Ranked MEET ... LIMIT k over every document.
        queries.append(("*", meet_query(
            "dblp//cdata", [_contains(rng.choice(SURNAMES))],
            "dblp//cdata", [_contains(rng.choice(TITLE_WORDS))],
            exclude=["dblp"], limit=10)))
        # A single-document MEET.
        queries.append((rng.choice(all_names), meet_query(
            "dblp//cdata", [_contains(rng.choice(CONFERENCES + JOURNALS))],
            "dblp//cdata", [("eq", str(rng.choice(YEARS)))],
            exclude=["dblp"], limit=20)))
        # A glob-scoped d-meet.
        queries.append(("conf*", meet_query(
            "dblp//cdata", [_contains(rng.choice(SURNAMES))],
            "dblp//cdata", [_contains(str(rng.choice(YEARS)))],
            within=4, limit=25)))
        # Boolean predicates with EXCLUDE.
        w1, w2, w3 = rng.sample(TITLE_WORDS, 3)
        queries.append(("*", meet_query(
            "dblp//cdata",
            [("or", _contains(w1), _contains(w2)), ("not", _contains(w3))],
            "dblp//cdata", [_contains(rng.choice(SURNAMES))],
            exclude=["dblp"], limit=15)))
        # A non-meet projection with LIMIT.
        queries.append(("*", {
            "proj": "var",
            "vars": [("t", "dblp/inproceedings/title/cdata",
                      [_contains(rng.choice(TITLE_WORDS))])],
            "limit": 10}))
    rng.shuffle(queries)
    return queries


def fig6_queries():
    """One MEET per planted distance (search-bound)."""
    out = []
    for distance in PLANTED_DISTANCES:
        a, b = planted_terms(distance)
        query = meet_query("media//cdata", [_contains(a)],
                           "media//cdata", [_contains(b)])
        query["label"] = "fig6"
        out.append(("media", query))
    return out


def fig7_queries():
    """ICDE plus a growing interval of years, root excluded (meet-bound):
    the paper's DBLP case study."""
    out = []
    for last in YEARS:
        interval = None
        for year in range(YEARS[0], last + 1):
            leaf = ("eq", str(year))
            interval = leaf if interval is None else ("or", interval, leaf)
        query = meet_query("dblp//cdata", [_contains("ICDE")],
                           "dblp//year/cdata", [interval], exclude=["dblp"])
        query["label"] = "fig7"
        out.append(("dblp", query))
    return out


def small_meets(rng, scope, count):
    """Selective author/year meets: the cold_open and ingest probes."""
    return [(scope, meet_query(
        "dblp//cdata", [_contains(rng.choice(SURNAMES))],
        "dblp//cdata", [_contains(str(rng.choice(YEARS)))],
        exclude=["dblp"], limit=10)) for _ in range(count)]
