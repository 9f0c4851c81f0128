// Tokenization of raw microblog text into normalized keyword strings.
//
// The paper builds CKG nodes from message keywords "after removing stop
// words" (Section 1.1). The tokenizer lower-cases, strips punctuation
// (keeping #hashtags, @mentions and decimals like "5.9" intact — Figure 1
// has node "5.9"), and drops tokens shorter than two characters.

#ifndef SCPRT_TEXT_TOKENIZER_H_
#define SCPRT_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace scprt::text {

/// Splits `message` into normalized tokens. Deterministic, allocation-light.
/// Tokens shorter than two characters ("a") are dropped, "#tag" / "@user"
/// sigils stay part of the token, and bare numbers of more than four digits
/// (timestamps, ids) are dropped; short numerics like "5.9" are kept.
/// Does NOT remove stop words; compose with text::IsStopWord.
std::vector<std::string> Tokenize(std::string_view message);

/// Lower-cases ASCII in place; non-ASCII bytes are passed through.
void AsciiLowerInPlace(std::string& s);

}  // namespace scprt::text

#endif  // SCPRT_TEXT_TOKENIZER_H_
