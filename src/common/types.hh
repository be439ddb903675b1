/**
 * @file
 * Fundamental scalar types shared across the column store, the baseline
 * engine and the AQUOMAN device model.
 */

#ifndef AQUOMAN_COMMON_TYPES_HH
#define AQUOMAN_COMMON_TYPES_HH

#include <cstdint>
#include <string>

namespace aquoman {

/**
 * Row identifier. MonetDB represents primary keys internally as dense
 * RowIDs; AQUOMAN's join machinery carries <key, RowId> pairs. 64-bit so
 * that SF-1000 lineitem (~6e9 rows) is representable.
 */
using RowId = std::int64_t;

/** Row-Vector ID: index of a 32-row vector within a column file. */
using RowVecId = std::int64_t;

/** Number of rows covered by one Row Vector (Sec. IV of the paper). */
constexpr int kRowVectorSize = 32;

/** Logical column types stored in the column store. */
enum class ColumnType : std::uint8_t
{
    Int32,   ///< 32-bit signed integer
    Int64,   ///< 64-bit signed integer
    Date,    ///< days since 1970-01-01, stored as int32
    Decimal, ///< fixed-point (2 fractional digits), stored as int64
    Varchar, ///< variable-size string backed by a string heap
};

/** Width in bytes of one value of @p type as stored in a column file. */
inline int
columnTypeWidth(ColumnType type)
{
    switch (type) {
      case ColumnType::Int32:
      case ColumnType::Date:
        return 4;
      case ColumnType::Int64:
      case ColumnType::Decimal:
        return 8;
      case ColumnType::Varchar:
        return 8; // offset into the string heap
    }
    return 8;
}

} // namespace aquoman

#endif // AQUOMAN_COMMON_TYPES_HH
