// Differential oracle: seeded random statement streams run against the
// engine and against SQLite, with the planner on and off. Every DML must
// report the same affected count (or fail in both), and every SELECT — plus
// a periodic full-table read — must return the same bag of rows.
//
// Each schema is one table with an INTEGER primary key and one secondary
// index over a seeded column choice. Statements stay in the subset whose
// semantics the two engines share: integer and text columns, comparisons
// (= <> < <= > >=), BETWEEN, IN, IS [NOT] NULL, AND/OR, and UPDATEs whose
// outcome cannot depend on the order rows are visited in. Built only when
// CMake finds SQLite3.
//
// A failing case prints its seed; PHX_DIFF_SEED=<n> replays that one seed.

#include <sqlite3.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "engine/database.h"
#include "gtest/gtest.h"

namespace phoenix::eng {
namespace {

using Bag = std::vector<std::vector<std::string>>;

/// One statement's outcome, normalized across the two engines.
struct Outcome {
  bool ok = false;
  int64_t affected = -1;  ///< DML only
  Bag rows;               ///< SELECT only, sorted
  std::string error;
};

class Sqlite {
 public:
  Sqlite() { sqlite3_open(":memory:", &db_); }
  ~Sqlite() { sqlite3_close(db_); }

  Outcome Run(const std::string& sql) {
    Outcome out;
    sqlite3_stmt* stmt = nullptr;
    if (sqlite3_prepare_v2(db_, sql.c_str(), -1, &stmt, nullptr) !=
        SQLITE_OK) {
      out.error = sqlite3_errmsg(db_);
      return out;
    }
    int rc;
    while ((rc = sqlite3_step(stmt)) == SQLITE_ROW) {
      std::vector<std::string> row;
      for (int i = 0; i < sqlite3_column_count(stmt); ++i) {
        switch (sqlite3_column_type(stmt, i)) {
          case SQLITE_NULL:
            row.push_back("NULL");
            break;
          case SQLITE_INTEGER:
            row.push_back(std::to_string(sqlite3_column_int64(stmt, i)));
            break;
          default:
            row.push_back(
                "'" +
                std::string(reinterpret_cast<const char*>(
                    sqlite3_column_text(stmt, i))));
            break;
        }
      }
      out.rows.push_back(std::move(row));
    }
    out.ok = rc == SQLITE_DONE;
    if (!out.ok) out.error = sqlite3_errmsg(db_);
    if (out.ok && sqlite3_column_count(stmt) == 0) {
      out.affected = sqlite3_changes(db_);
    }
    sqlite3_finalize(stmt);
    std::sort(out.rows.begin(), out.rows.end());
    return out;
  }

 private:
  sqlite3* db_ = nullptr;
};

class Engine {
 public:
  explicit Engine(bool planner) {
    db_ = std::make_unique<Database>(&disk_);
    EXPECT_TRUE(db_->Open().ok());
    db_->set_index_planner(planner);
    sid_ = *db_->CreateSession("diff");
  }

  Outcome Run(const std::string& sql) {
    Outcome out;
    auto r = db_->ExecuteScript(sid_, sql);
    if (!r.ok()) {
      out.error = r.status().ToString();
      return out;
    }
    out.ok = true;
    const StatementResult& res = r->back();
    if (!res.has_rows) {
      out.affected = res.affected;
      return out;
    }
    for (const Row& row : res.rows) {
      std::vector<std::string> cells;
      for (const Value& v : row) {
        if (v.is_null()) {
          cells.push_back("NULL");
        } else if (v.type() == DataType::kString) {
          cells.push_back("'" + v.AsString());
        } else {
          cells.push_back(std::to_string(v.AsInt64()));
        }
      }
      out.rows.push_back(std::move(cells));
    }
    std::sort(out.rows.begin(), out.rows.end());
    return out;
  }

 private:
  storage::SimDisk disk_;
  std::unique_ptr<Database> db_;
  uint64_t sid_ = 0;
};

/// Seeded generator of statements over
/// T (K INTEGER PRIMARY KEY, A INTEGER, B INTEGER, S TEXT).
class Gen {
 public:
  explicit Gen(uint64_t seed) : rng_(seed) {}

  int Pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  bool Chance(int percent) { return Pick(100) < percent; }

  std::vector<std::string> Schema() {
    static const char* kIndexes[] = {"(A)", "(B)", "(A, B)", "(S)",
                                     "(B, S)", "(S, A)"};
    rows_ = 40 + Pick(260);
    std::vector<std::string> ddl = {
        "CREATE TABLE T (K INTEGER PRIMARY KEY, A INTEGER, B INTEGER, S TEXT)",
        std::string("CREATE INDEX IX ON T ") + kIndexes[Pick(6)]};
    for (int k = 0; k < rows_; ++k) {
      // Sparse keys leave room for inserts; some are skipped outright.
      if (Chance(20)) continue;
      ddl.push_back("INSERT INTO T VALUES (" + std::to_string(k * 2) + ", " +
                    IntOrNull() + ", " + IntOrNull() + ", " + TextOrNull() +
                    ")");
    }
    return ddl;
  }

  std::string Statement() {
    int roll = Pick(100);
    if (roll < 20) return Insert();
    if (roll < 45) return Update();
    if (roll < 60) return Delete();
    return "SELECT K, A, B, S FROM T WHERE " + Pred(2);
  }

 private:
  std::string Key() { return std::to_string(Pick(rows_ * 2 + 20) - 10); }
  std::string Int() { return std::to_string(Pick(24) - 2); }
  std::string IntOrNull() { return Chance(10) ? "NULL" : Int(); }
  std::string Text() { return std::string("'") + "abcdefg"[Pick(7)] + "'"; }
  std::string TextOrNull() { return Chance(10) ? "NULL" : Text(); }

  std::string Insert() {
    int n = 1 + (Chance(25) ? Pick(4) : 0);
    std::string sql = "INSERT INTO T VALUES ";
    for (int i = 0; i < n; ++i) {
      if (i > 0) sql += ", ";
      sql += "(" + Key() + ", " + IntOrNull() + ", " + IntOrNull() + ", " +
             TextOrNull() + ")";
    }
    return sql;
  }

  std::string Update() {
    // A primary-key rewrite touches one row, so its success cannot depend
    // on visit order (a collision fails both engines alike).
    if (Chance(10)) {
      return "UPDATE T SET K = " + Key() + " WHERE K = " + Key();
    }
    static const char* kSets[] = {"A = A + 1", "B = 7", "A = NULL",
                                  "S = 'z'",   "B = K % 5", "A = B, B = A"};
    std::string sql = std::string("UPDATE T SET ") + kSets[Pick(6)];
    if (Chance(30)) sql += std::string(", ") + kSets[Pick(6)];
    return sql + " WHERE " + Pred(2);
  }

  std::string Delete() {
    if (Chance(2)) return "DELETE FROM T";
    return "DELETE FROM T WHERE " + Pred(2);
  }

  std::string Pred(int depth) {
    if (depth > 0 && Chance(35)) {
      const char* op = Chance(60) ? " AND " : " OR ";
      return "(" + Pred(depth - 1) + op + Pred(depth - 1) + ")";
    }
    return Atom();
  }

  std::string Atom() {
    static const char* kCmp[] = {"=", "<>", "<", "<=", ">", ">="};
    if (Chance(15)) {
      if (Chance(50)) {
        return std::string("S ") + kCmp[Pick(6)] + " " + Text();
      }
      return std::string("S") + (Chance(50) ? " IS NULL" : " IS NOT NULL");
    }
    // The key column is the hot one: most probes should hit the PK.
    std::string col = Chance(45) ? "K" : (Chance(50) ? "A" : "B");
    std::string lit = col == "K" ? Key() : Int();
    switch (Pick(7)) {
      case 0:
      case 1:
        return col + " = " + lit;
      case 2:
        // Literal on the left, and sometimes a non-integer bound.
        return (Chance(50) ? lit : lit + ".5") + " " + kCmp[Pick(6)] + " " +
               col;
      case 3:
        return col + " " + kCmp[Pick(6)] + " " + lit;
      case 4: {
        int lo = std::stoi(lit);
        return col + " BETWEEN " + std::to_string(lo) + " AND " +
               std::to_string(lo + Pick(12));
      }
      case 5: {
        std::string in = col + " IN (" + lit;
        for (int i = Pick(4); i > 0; --i) {
          in += ", " + (col == "K" ? Key() : Int());
        }
        if (Chance(10)) in += ", NULL";
        return in + ")";
      }
      default:
        return col + (Chance(50) ? " IS NULL" : " IS NOT NULL");
    }
  }

  std::mt19937_64 rng_;
  int rows_ = 0;
};

std::string Describe(const Outcome& o) {
  if (!o.ok) return "error: " + o.error;
  if (o.affected >= 0) return "affected " + std::to_string(o.affected);
  return std::to_string(o.rows.size()) + " rows";
}

/// Runs one seeded stream, stopping at its first disagreement.
void RunSeed(uint64_t seed, bool planner, int statements) {
  Gen gen(seed);
  Sqlite lite;
  Engine eng(planner);
  std::string where = "seed " + std::to_string(seed) + ", planner " +
                      (planner ? "on" : "off");
  for (const std::string& sql : gen.Schema()) {
    Outcome a = eng.Run(sql);
    Outcome b = lite.Run(sql);
    if (!a.ok || !b.ok) {
      ADD_FAILURE() << where << ": setup failed: " << sql << "\n  engine "
                    << Describe(a) << "\n  sqlite " << Describe(b);
      return;
    }
  }
  const std::string kAll = "SELECT K, A, B, S FROM T";
  for (int i = 0; i < statements; ++i) {
    std::string sql = gen.Statement();
    bool check_all = i % 25 == 24;
    for (const std::string& q :
         check_all ? std::vector<std::string>{sql, kAll}
                   : std::vector<std::string>{sql}) {
      Outcome a = eng.Run(q);
      Outcome b = lite.Run(q);
      if (a.ok != b.ok || a.affected != b.affected || a.rows != b.rows) {
        ADD_FAILURE() << where << ", statement " << i << ": " << q
                      << "\n  engine " << Describe(a) << "\n  sqlite "
                      << Describe(b);
        return;
      }
    }
  }
}

TEST(SqliteDiffTest, RandomStreamsAgreeWithPlannerOnAndOff) {
  constexpr int kStatements = 1000;
  std::vector<uint64_t> seeds;
  if (const char* one = std::getenv("PHX_DIFF_SEED")) {
    seeds.push_back(std::strtoull(one, nullptr, 10));
  } else {
    for (uint64_t s = 1; s <= 16; ++s) seeds.push_back(s);
  }
  for (uint64_t seed : seeds) {
    for (bool planner : {true, false}) RunSeed(seed, planner, kStatements);
  }
}

}  // namespace
}  // namespace phoenix::eng
