//! Canned example sentences and a toy word-level tokenizer for the
//! interpretability demos (paper Fig. 22).
//!
//! The paper visualizes cascade token pruning on real sentences
//! ("A wonderful movie, I am sure that you will remember it …"). We carry a
//! few of those sentences plus a word-level vocabulary; the examples show
//! that token pruning driven by accumulated attention keeps content words
//! and drops fillers.

use std::collections::HashMap;

/// A small word-level vocabulary built from example sentences.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Vocabulary {
    word_to_id: HashMap<String, usize>,
    id_to_word: Vec<String>,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of known words.
    pub fn len(&self) -> usize {
        self.id_to_word.len()
    }

    /// Whether no words are known.
    pub fn is_empty(&self) -> bool {
        self.id_to_word.is_empty()
    }

    /// Id of `word`, inserting it if new. Words are lowercased.
    pub fn intern(&mut self, word: &str) -> usize {
        let key = word.to_lowercase();
        if let Some(&id) = self.word_to_id.get(&key) {
            return id;
        }
        let id = self.id_to_word.len();
        self.word_to_id.insert(key.clone(), id);
        self.id_to_word.push(key);
        id
    }

    /// The word of an id.
    pub fn word(&self, id: usize) -> Option<&str> {
        self.id_to_word.get(id).map(String::as_str)
    }

    /// Tokenizes a sentence (whitespace split, punctuation kept attached).
    pub fn tokenize(&mut self, sentence: &str) -> Vec<usize> {
        sentence
            .split_whitespace()
            .map(|w| self.intern(w))
            .collect()
    }
}

/// An example sentence with its task framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExampleSentence {
    /// Task description (matches the paper's Fig. 22 rows).
    pub task: &'static str,
    /// The raw sentence.
    pub text: &'static str,
    /// The paper's reported outcome on this example.
    pub outcome: &'static str,
}

impl ExampleSentence {
    /// The three Fig. 22 examples.
    pub fn fig22() -> Vec<ExampleSentence> {
        vec![
            ExampleSentence {
                task: "BERT sentence classification",
                text: "A wonderful movie , I am sure that you will remember it , you admire \
                       its conception and are able to resolve some of the confusions you had \
                       while watching it .",
                outcome: "sentiment: positive",
            },
            ExampleSentence {
                task: "BERT sentence similarity regression",
                text: "It does sound like your cat is upset about something , and trying to \
                       communicate it to you . [separate] Something is bothering your cat and \
                       he wants to tell you .",
                outcome: "similarity: 3.8 / 5",
            },
            ExampleSentence {
                task: "GPT-2 language modeling",
                text: "Du Fu was a great poet of the Tang dynasty . Recently a variety of \
                       styles have been used in efforts to translate the work of Du Fu into",
                outcome: "generated token: 'English'",
            },
        ]
    }

    /// The Fig. 1 example.
    pub fn fig1() -> ExampleSentence {
        ExampleSentence {
            task: "BERT-Base on SST-2",
            text: "As a visual treat , the film is almost perfect .",
            outcome: "sentiment: positive",
        }
    }

    /// Words of the sentence.
    pub fn words(&self) -> Vec<&str> {
        self.text.split_whitespace().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_case_insensitive() {
        let mut v = Vocabulary::new();
        let a = v.intern("Movie");
        let b = v.intern("movie");
        assert_eq!(a, b);
        assert_eq!(v.word(a), Some("movie"));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn tokenize_roundtrips_words() {
        let mut v = Vocabulary::new();
        let ids = v.tokenize("the film is almost perfect");
        assert_eq!(ids.len(), 5);
        let words: Vec<&str> = ids.iter().map(|&i| v.word(i).unwrap()).collect();
        assert_eq!(words, vec!["the", "film", "is", "almost", "perfect"]);
    }

    #[test]
    fn fig22_examples_present() {
        let ex = ExampleSentence::fig22();
        assert_eq!(ex.len(), 3);
        assert!(ex[0].words().len() > 20);
        assert!(ex[2].text.contains("Du Fu"));
    }

    #[test]
    fn fig1_sentence_matches_paper() {
        let e = ExampleSentence::fig1();
        assert_eq!(e.words().len(), 11); // 10 words + final period
    }
}
