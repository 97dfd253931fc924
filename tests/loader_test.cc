#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "fgq/db/loader.h"

namespace fgq {
namespace {

// Every loader failure must say *where*: source name + line number, so a
// bad line in a million-fact file is findable.

TEST(Loader, MalformedLineReportsSourceAndLine) {
  Database db;
  Dictionary dict;
  Status st = LoadFactsFromString("E a b\n42 7\n", &db, &dict);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("<string>:2:"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("malformed fact line"), std::string::npos);
  EXPECT_NE(st.message().find("'42'"), std::string::npos);
}

TEST(Loader, ArityDriftReportsSourceAndLine) {
  Database db;
  Dictionary dict;
  Status st = LoadFactsFromString("E a b\nE c d e\n", &db, &dict, "facts.txt");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("facts.txt:2:"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("arity mismatch for relation 'E'"),
            std::string::npos);
  EXPECT_NE(st.message().find("expected 2, got 3"), std::string::npos);
}

TEST(Loader, MissingFileReportsPath) {
  Database db;
  Dictionary dict;
  Status st = LoadFactsFromFile("/nonexistent/facts.txt", &db, &dict);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_NE(st.message().find("/nonexistent/facts.txt"), std::string::npos)
      << st.message();
}

TEST(Loader, FileErrorsCarryThePath) {
  const std::string path = ::testing::TempDir() + "fgq_loader_test_facts.txt";
  {
    std::ofstream f(path);
    f << "E 1 2\n"
         "# comment lines and blanks are skipped\n"
         "\n"
         "E 3\n";
  }
  Database db;
  Dictionary dict;
  Status st = LoadFactsFromFile(path, &db, &dict);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find(path + ":4:"), std::string::npos)
      << st.message();
  std::remove(path.c_str());
}

TEST(Loader, CommentsBlanksAndInterningStillWork) {
  Database db;
  Dictionary dict;
  Status st = LoadFactsFromString("# header\nE a b\n\nE b c\nB 7\n",
                                  &db, &dict);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ((*db.Find("E"))->NumTuples(), 2u);
  EXPECT_EQ((*db.Find("B"))->NumTuples(), 1u);
  // Integer tokens stay literal; identifiers are interned.
  EXPECT_EQ((*db.Find("B"))->Row(0).ToTuple(), (Tuple{7}));
}

TEST(Loader, LoadedRelationsAreSortedSets) {
  Database db;
  Dictionary dict;
  Status st = LoadFactsFromString("E 3 1\nE 1 2\nB 5\nE 3 1\nE 1 0\nB 2\n",
                                  &db, &dict);
  ASSERT_TRUE(st.ok()) << st;
  const Relation* e = *db.Find("E");
  EXPECT_TRUE(e->sorted());
  EXPECT_EQ(e->ToRowMajor(), (std::vector<Value>{1, 0, 1, 2, 3, 1}));
  const Relation* b = *db.Find("B");
  EXPECT_TRUE(b->sorted());
  EXPECT_EQ(b->ToRowMajor(), (std::vector<Value>{2, 5}));
}

}  // namespace
}  // namespace fgq
