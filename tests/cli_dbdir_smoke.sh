#!/bin/sh
# Database-directory workflow end to end: `index` writes two XML files as
# a database directory; `search`, `basesearch` and `serve` read it (the
# indexes are built at open); `serve` over the directory answers exactly
# like `serve` over its packed form; the directory holds only the
# manifest and the documents; and two inputs with one basename are
# rejected before anything is written.
#
#   cli_dbdir_smoke.sh <quickview_cli> <work-dir>
set -e
cli=$1
work=$2
rm -rf "$work"
mkdir -p "$work"

cat > "$work/books.xml" <<'XML'
<books>
  <book><isbn>1</isbn><title>xml search engines</title><year>2001</year></book>
  <book><isbn>2</isbn><title>web database systems</title><year>1999</year></book>
  <book><isbn>3</isbn><title>xml databases in practice</title><year>2004</year></book>
</books>
XML
cat > "$work/reviews.xml" <<'XML'
<reviews>
  <review><isbn>1</isbn><content>clear about xml and search</content></review>
  <review><isbn>3</isbn><content>database practice, with xml</content></review>
  <review><isbn>3</isbn><content>search chapters are thin</content></review>
</reviews>
XML
cat > "$work/view.xq" <<'XQ'
for $book in fn:doc(books.xml)/books//book
return <hit>
  <book> {$book/title} </book>,
  {for $rev in fn:doc(reviews.xml)/reviews//review
   where $rev/isbn = $book/isbn
   return $rev/content}
</hit>
XQ

"$cli" index "$work/books.xml" "$work/reviews.xml" --out "$work/db"

out=$("$cli" search "$work/db" --view "$work/view.xq" --keywords xml,search)
echo "$out"
case "$out" in *'#1 score='*) ;; *) echo 'search returned no hit'; exit 1;; esac

out=$("$cli" basesearch "$work/db" --keywords xml)
echo "$out"
case "$out" in *'#1 score='*) ;; *) echo 'basesearch returned no hit'; exit 1;; esac

queries='xml,search\ndatabase\npractice\n'
dir=$(printf "$queries" | "$cli" serve "$work/db" --view "$work/view.xq")
echo "$dir"
"$cli" pack "$work/db" "$work/db.qvpack"
pk=$(printf "$queries" | "$cli" serve "$work/db.qvpack" --view "$work/view.xq")
dir_results=$(echo "$dir" | grep '^\[')
pk_results=$(echo "$pk" | grep '^\[')
[ -n "$dir_results" ] || { echo 'serve over the directory printed no result'; exit 1; }
[ "$dir_results" = "$pk_results" ] || {
  echo 'serve over the directory differs from serve over its pack'
  echo "$pk"
  exit 1
}

# A database directory is the ingest format: the manifest and one file
# per document, nothing else (no persisted index files).
stray=$(ls "$work/db" | grep -v -e '^manifest\.qv$' -e '^doc_[0-9]*\.xml$' || true)
[ -z "$stray" ] || { echo "unexpected files in the database directory: $stray"; exit 1; }
# Documents are named by basename: two inputs sharing one are rejected
# before anything is written, never silently collapsed into one.
mkdir -p "$work/a" "$work/b"
cp "$work/books.xml" "$work/a/books.xml"
cp "$work/books.xml" "$work/b/books.xml"
if err=$("$cli" index "$work/a/books.xml" "$work/b/books.xml" --out "$work/dup" 2>&1); then
  echo 'index accepted two files with one document name'
  exit 1
fi
echo "$err"
case "$err" in *InvalidArgument*"$work/a/books.xml"*"$work/b/books.xml"*) ;; *)
  echo 'duplicate-name error does not name both paths'
  exit 1;;
esac
[ ! -e "$work/dup/manifest.qv" ] || { echo 'index wrote a manifest despite the error'; exit 1; }
echo 'cli_dbdir_smoke: ok'
