#include "util/csv.h"

#include <gtest/gtest.h>

#include <sstream>

namespace hedra {
namespace {

TEST(CsvTest, PlainRow) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
  EXPECT_EQ(csv.rows_written(), 1u);
}

TEST(CsvTest, QuotesFieldsWithSeparator) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"a,b", "c"});
  EXPECT_EQ(os.str(), "\"a,b\",c\n");
}

TEST(CsvTest, EscapesQuotes) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"say \"hi\""});
  EXPECT_EQ(os.str(), "\"say \"\"hi\"\"\"\n");
}

TEST(CsvTest, QuotesNewlines) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"two\nlines", "x"});
  EXPECT_EQ(os.str(), "\"two\nlines\",x\n");
}

TEST(CsvTest, CustomSeparator) {
  std::ostringstream os;
  CsvWriter csv(os, ';');
  csv.row({"a;b", "c"});
  EXPECT_EQ(os.str(), "\"a;b\";c\n");
}

TEST(CsvTest, EmptyRow) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row(std::vector<std::string>{});
  EXPECT_EQ(os.str(), "\n");
}

}  // namespace
}  // namespace hedra
