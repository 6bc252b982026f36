"""Querying real XML files: library usage mirroring the `repro-xpath` CLI.

Shows the end-to-end workflow a downstream user would follow: serialise
documents to XML, register them on a :class:`repro.session.Session`, compile
a query once with :meth:`Session.compile`, and stream it across the corpus
with :meth:`Session.query_corpus`.  The last lines print the equivalent
``repro-xpath answer`` invocation for one file.

Run with::

    python examples/xml_files_cli.py
"""

import os
import tempfile

from repro import tree_from_xml, tree_to_xml
from repro.session import Session
from repro.workloads import generate_bibliography


def main() -> None:
    # Write two bibliographies of different sizes to disk as XML.
    paths = []
    tmpdir = tempfile.mkdtemp(prefix="repro-example-")
    for index, books in enumerate((3, 8)):
        document = generate_bibliography(books, authors_per_book=2, seed=index)
        path = os.path.join(tmpdir, f"bib{index}.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(tree_to_xml(document, indent=True))
        paths.append(path)
    print("wrote sample documents:", *paths, sep="\n  ")

    with Session() as session:
        for path in paths:
            session.add_file(path)

        # Compile the pair query once; the Definition 1 check and the Fig. 7
        # translation happen here, not at every execution — and the session
        # memoises the plan, so repeated query_corpus calls reuse it.
        query = session.compile(
            "descendant::book[ child::author[. is $y] and child::title[. is $z] ]",
            ["y", "z"],
        )
        print(f"\ncompiled query of arity {query.arity}")

        for result in session.query_corpus(query):
            print(
                f"{result.doc_name}.xml: {result.report.tree_size} nodes, "
                f"{len(result.answers)} pairs"
            )

    # Round-trip sanity check: serialise + reparse preserves the document.
    original = generate_bibliography(2, seed=42)
    assert tree_from_xml(tree_to_xml(original)) == original
    print("\nXML round-trip preserves the document structure")
    print("equivalent CLI invocation:")
    print(
        f"  repro-xpath answer --xml {paths[0]} --vars y,z --labels \\\n"
        "      --query \"descendant::book[child::author[. is $y] and "
        "child::title[. is $z]]\""
    )


if __name__ == "__main__":
    main()
