/**
 * @file
 * Core identifier types of the database engine.
 */

#ifndef ODBSIM_DB_TYPES_HH
#define ODBSIM_DB_TYPES_HH

#include <cstdint>

namespace odbsim::db
{

/** Global 8 KB-block identifier (position on the virtual volume). */
using BlockId = std::uint64_t;

/** Sentinel for "no block". */
constexpr BlockId invalidBlock = ~static_cast<BlockId>(0);

/** Database block size used throughout the study. */
constexpr std::uint64_t blockBytes = 8192;

/** The tables of the ODB order-entry schema. */
enum class Table : std::uint8_t
{
    Warehouse,
    District,
    Customer,
    History,
    NewOrder,
    Orders,
    OrderLine,
    Item,
    Stock,
    NumTables,
};

constexpr unsigned numTables = static_cast<unsigned>(Table::NumTables);

constexpr const char *
toString(Table t)
{
    switch (t) {
      case Table::Warehouse: return "warehouse";
      case Table::District: return "district";
      case Table::Customer: return "customer";
      case Table::History: return "history";
      case Table::NewOrder: return "new_order";
      case Table::Orders: return "orders";
      case Table::OrderLine: return "order_line";
      case Table::Item: return "item";
      case Table::Stock: return "stock";
      default: return "?";
    }
}

/** A row key: dense 64-bit ordinal within its table. */
using RowKey = std::uint64_t;

/** Lock-resource identifier: table + row key packed. */
using LockKey = std::uint64_t;

constexpr LockKey
makeLockKey(Table t, RowKey row)
{
    return (static_cast<LockKey>(t) << 56) | (row & 0x00ff'ffff'ffff'ffffULL);
}

} // namespace odbsim::db

#endif // ODBSIM_DB_TYPES_HH
