#ifndef AUTOBI_TESTS_LOADER_FUZZ_INPUTS_H_
#define AUTOBI_TESTS_LOADER_FUZZ_INPUTS_H_

// Seed inputs and the byte mutator of the loader fuzz tests, shared by
// loader_fuzz_test.cc (error-not-crash) and csv_oracle_test.cc (ReadCsv
// against the reference reader on the same inputs).

#include <string>

#include "common/rng.h"

namespace autobi {

inline const char* const kCsvSeeds[] = {
    "id,name,price\n1,apple,0.5\n2,banana,0.25\n3,cherry,3.0\n",
    "\xEF\xBB\xBFk,v\r\n1,\"a,b\"\r\n2,\"quote\"\"d\"\r\n",
    "a\n1\n2\n3\n4\n",
    "x,y,z\n,,\n\"multi\nline\",2,3\n",
};

// Bytes that exercise the loaders' special cases.
inline const char kSpice[] = {',', '"', '\n', '\r', '\0', ';',
                              '(', ')', '.', '\\', '\xEF', '\xBB',
                              '\xBF', '\xFF', ' ', '\t'};

inline std::string Mutate(std::string input, Rng& rng) {
  int edits = 1 + static_cast<int>(rng.NextBelow(8));
  for (int e = 0; e < edits && !input.empty(); ++e) {
    size_t pos = rng.NextBelow(input.size());
    switch (rng.NextBelow(5)) {
      case 0:
        input[pos] = kSpice[rng.NextBelow(sizeof(kSpice))];
        break;
      case 1:
        input[pos] = static_cast<char>(rng.NextBelow(256));
        break;
      case 2:
        input.insert(pos, 1, kSpice[rng.NextBelow(sizeof(kSpice))]);
        break;
      case 3:
        input.erase(pos, 1 + rng.NextBelow(4));
        break;
      default:
        input.resize(pos);  // Truncate.
        break;
    }
  }
  return input;
}

inline std::string RandomBytes(Rng& rng) {
  std::string out(rng.NextBelow(200), '\0');
  for (char& c : out) c = static_cast<char>(rng.NextBelow(256));
  return out;
}

}  // namespace autobi

#endif  // AUTOBI_TESTS_LOADER_FUZZ_INPUTS_H_
