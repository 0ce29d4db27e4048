#include "cqa/rewriting.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "query/evaluator.h"

namespace cqa {

namespace {

/// Comma-joined attribute list, optionally alias-qualified.
std::string AttrList(const RelationSchema& rel,
                     const std::vector<size_t>& positions) {
  std::ostringstream os;
  for (size_t i = 0; i < positions.size(); ++i) {
    if (i > 0) os << ", ";
    os << rel.attribute(positions[i]).name;
  }
  return os.str();
}

std::vector<size_t> AllPositions(const RelationSchema& rel) {
  std::vector<size_t> all(rel.arity());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return all;
}

std::vector<size_t> NonKeyPositions(const RelationSchema& rel) {
  std::vector<size_t> non_key;
  for (size_t i = 0; i < rel.arity(); ++i) {
    if (!rel.IsKeyPosition(i)) non_key.push_back(i);
  }
  return non_key;
}

std::string SqlLiteral(const Value& v) {
  if (v.is_string()) return "'" + v.AsString() + "'";
  return v.ToString();
}

/// The linear pass of Appendix C over Q^rew(D), shared by both callers
/// below: rows arrive grouped by answer, and each row's fact set
/// {[[rid, bid, tid]]} is the homomorphic image, kept when equal (rid,
/// bid) implies equal tid. Calls `emit(answer, synopsis)` once per answer
/// in row order, skipping answers whose every homomorphism was
/// inconsistent (Lemma 4.1(4) excludes them from syn); stops as soon as
/// `emit` returns false. One answer's images are in memory at a time;
/// blocks take their kcnt from `index`, the index the rows came from.
template <typename Emit>
void EncodeRows(const std::vector<QrewRow>& rows, const BlockIndex& index,
                Emit&& emit) {
  SynopsisEncoder encoder(index);
  std::vector<GlobalFact> image, facts;
  std::vector<uint32_t> ends;
  for (size_t i = 0; i < rows.size(); ++i) {
    const QrewRow& row = rows[i];
    image.clear();
    for (const QrewRow::AtomAnnotation& a : row.atoms) {
      image.push_back(GlobalFact{static_cast<uint32_t>(a.rid),
                                 static_cast<uint32_t>(a.bid),
                                 static_cast<uint32_t>(a.tid)});
    }
    if (CanonicalizeImage(&image)) {
      facts.insert(facts.end(), image.begin(), image.end());
      ends.push_back(static_cast<uint32_t>(facts.size()));
    }
    if (i + 1 < rows.size() && rows[i + 1].answer == row.answer) continue;
    if (ends.empty()) continue;
    Synopsis synopsis = encoder.Encode(facts, ends);
    facts.clear();
    ends.clear();
    if (!emit(row.answer, std::move(synopsis))) return;
  }
}

}  // namespace

std::string RelationViewSql(const RelationSchema& rel, size_t rid) {
  // A relation without a key never conflicts: its "blocks" are the rows
  // themselves, which dense_rank over all attributes reproduces.
  std::vector<size_t> key =
      rel.has_key() ? rel.key_positions() : AllPositions(rel);
  std::vector<size_t> non_key =
      rel.has_key() ? NonKeyPositions(rel) : std::vector<size_t>{};
  std::string key_list = AttrList(rel, key);
  std::string order_list = non_key.empty() ? key_list : AttrList(rel, non_key);

  std::ostringstream os;
  os << "CREATE VIEW q_" << rel.name() << " AS\n"
     << "SELECT " << AttrList(rel, AllPositions(rel)) << ",\n"
     << "       " << rid << " AS rid,\n"
     << "       dense_rank() OVER (ORDER BY " << key_list << ") AS bid,\n"
     << "       row_number() OVER (PARTITION BY " << key_list
     << " ORDER BY " << order_list << ") AS tid,\n"
     << "       count(*) OVER (PARTITION BY " << key_list << ") AS kcnt\n"
     << "FROM " << rel.name() << ";";
  return os.str();
}

std::string RewritingSql(const Schema& schema, const ConjunctiveQuery& q) {
  std::ostringstream os;
  // SELECT: the answer attributes (first occurrence of each answer
  // variable), then the annotation columns of every atom.
  os << "SELECT ";
  bool first = true;
  for (size_t v : q.answer_vars()) {
    // Find the first (atom, position) holding variable v.
    for (size_t a = 0; a < q.NumAtoms() && true; ++a) {
      const Atom& atom = q.atom(a);
      bool found = false;
      for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
        if (atom.terms[pos].is_variable() && atom.terms[pos].var() == v) {
          if (!first) os << ", ";
          first = false;
          os << "r" << a + 1 << "."
             << schema.relation(atom.relation_id).attribute(pos).name;
          found = true;
          break;
        }
      }
      if (found) break;
    }
  }
  for (size_t a = 0; a < q.NumAtoms(); ++a) {
    if (!first) os << ", ";
    first = false;
    os << "r" << a + 1 << ".rid, r" << a + 1 << ".bid, r" << a + 1
       << ".tid, r" << a + 1 << ".kcnt";
  }

  // FROM: one aliased view instance per atom (self-joins get distinct
  // aliases).
  os << "\nFROM ";
  for (size_t a = 0; a < q.NumAtoms(); ++a) {
    if (a > 0) os << ", ";
    os << "q_" << schema.relation(q.atom(a).relation_id).name() << " AS r"
       << a + 1;
  }

  // WHERE: constants plus variable-equality chains.
  std::vector<std::string> conditions;
  std::map<size_t, std::pair<size_t, size_t>> first_occurrence;
  for (size_t a = 0; a < q.NumAtoms(); ++a) {
    const Atom& atom = q.atom(a);
    const RelationSchema& rel = schema.relation(atom.relation_id);
    for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
      const Term& t = atom.terms[pos];
      std::ostringstream lhs;
      lhs << "r" << a + 1 << "." << rel.attribute(pos).name;
      if (t.is_constant()) {
        conditions.push_back(lhs.str() + " = " + SqlLiteral(t.constant()));
      } else {
        auto [it, inserted] =
            first_occurrence.emplace(t.var(), std::make_pair(a, pos));
        if (!inserted) {
          auto [fa, fpos] = it->second;
          std::ostringstream rhs;
          rhs << "r" << fa + 1 << "."
              << schema.relation(q.atom(fa).relation_id)
                     .attribute(fpos)
                     .name;
          conditions.push_back(lhs.str() + " = " + rhs.str());
        }
      }
    }
  }
  if (!conditions.empty()) {
    os << "\nWHERE ";
    for (size_t i = 0; i < conditions.size(); ++i) {
      if (i > 0) os << "\n  AND ";
      os << conditions[i];
    }
  }

  // ORDER BY the answer columns (so synopses can be streamed one answer
  // at a time, see the Remark in Appendix C).
  if (!q.answer_vars().empty()) {
    os << "\nORDER BY ";
    for (size_t i = 0; i < q.answer_vars().size(); ++i) {
      if (i > 0) os << ", ";
      os << i + 1;
    }
  }
  os << ";";
  return os.str();
}

std::vector<QrewRow> ExecuteRewriting(const Database& db,
                                      const ConjunctiveQuery& q,
                                      const BlockIndex& index) {
  std::vector<QrewRow> rows;
  CqEvaluator evaluator(&db, nullptr);
  evaluator.ForEachHomomorphism(q, [&](const Homomorphism& h) {
    QrewRow row;
    row.answer = h.AnswerTuple(q);
    row.atoms.reserve(h.image.size());
    for (const FactRef& f : h.image) {
      const BlockAnnotation ann =
          index.relation(f.relation_id).annotation(f.row);
      row.atoms.push_back(QrewRow::AtomAnnotation{
          f.relation_id, ann.block_id, ann.tuple_id, ann.block_size});
    }
    rows.push_back(std::move(row));
    return true;
  });
  // ORDER BY ᾱ.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const QrewRow& a, const QrewRow& b) {
                     return a.answer < b.answer;
                   });
  return rows;
}

PreprocessResult BuildSynopsesViaRewriting(const Database& db,
                                           const ConjunctiveQuery& q) {
  Stopwatch watch;
  std::shared_ptr<const BlockIndex> index = db.block_index();
  std::vector<QrewRow> rows = ExecuteRewriting(db, q, *index);
  PreprocessStats stats;
  stats.num_homomorphisms = rows.size();
  std::vector<AnswerSynopsis> answers;
  EncodeRows(rows, *index, [&](const Tuple& answer, Synopsis synopsis) {
    stats.num_images += synopsis.NumImages();
    answers.push_back(AnswerSynopsis{answer, std::move(synopsis)});
    return true;
  });
  stats.num_distinct_images = CountDistinctImages(answers);
  stats.seconds = watch.ElapsedSeconds();
  return PreprocessResult(std::move(answers), std::move(index), stats);
}

void ForEachSynopsis(const Database& db, const ConjunctiveQuery& q,
                     const SynopsisCallback& fn) {
  const std::shared_ptr<const BlockIndex> index = db.block_index();
  EncodeRows(ExecuteRewriting(db, q, *index), *index,
             [&](const Tuple& answer, Synopsis synopsis) {
               return fn(answer, synopsis);
             });
}

}  // namespace cqa
