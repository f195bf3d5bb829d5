/**
 * @file
 * Tests for the text-table formatter.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/table.hh"

namespace
{

using odbsim::analysis::TextTable;

TEST(TextTable, FormatsAlignedColumns)
{
    TextTable t({"a", "long_header"});
    t.addRow({"1", "2"});
    t.addRow({"100", "20000"});
    const std::string s = t.str();
    // Header, rule, two rows.
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
    EXPECT_NE(s.find("long_header"), std::string::npos);
    EXPECT_NE(s.find("20000"), std::string::npos);
    // Every line has the same width (right-aligned grid).
    std::size_t prev = std::string::npos;
    std::size_t pos = 0;
    while (pos < s.size()) {
        const std::size_t nl = s.find('\n', pos);
        const std::size_t len = nl - pos;
        if (prev != std::string::npos) {
            EXPECT_EQ(len, prev);
        }
        prev = len;
        pos = nl + 1;
    }
}

TEST(TextTable, ShortRowsArePadded)
{
    TextTable t({"a", "b", "c"});
    t.addRow({"1"});
    EXPECT_NO_THROW(t.str());
}

TEST(TextTable, NumFormatsDoubles)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(3.14159, 0), "3");
    EXPECT_EQ(TextTable::num(-1.5, 1), "-1.5");
}

TEST(TextTable, NumFormatsIntegers)
{
    EXPECT_EQ(TextTable::num(std::uint64_t(0)), "0");
    EXPECT_EQ(TextTable::num(std::uint64_t(123456789)), "123456789");
}

TEST(TextTable, ChainedAddRow)
{
    TextTable t({"x"});
    t.addRow({"1"}).addRow({"2"}).addRow({"3"});
    const std::string s = t.str();
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 5);
}

} // namespace
